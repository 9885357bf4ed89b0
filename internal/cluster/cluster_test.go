package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// testCluster is an in-process N-shard cluster: one VM, registry, and
// fabric server per shard, each guarding itself with SelfCheck.
type testCluster struct {
	m       *Membership
	servers []*remote.Server
	lns     []net.Listener
}

func startTestCluster(t testing.TB, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		tc.lns = append(tc.lns, ln)
		nodes[i] = Node{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()}
	}
	m, err := NewMembership(nodes)
	if err != nil {
		t.Fatalf("NewMembership: %v", err)
	}
	tc.m = m
	for i := 0; i < n; i++ {
		check, err := SelfCheck(m, nodes[i].ID, 0)
		if err != nil {
			t.Fatalf("SelfCheck: %v", err)
		}
		vm := testkit.VM(t, 2, 2)
		srv := remote.NewServer(vm, remote.ServerConfig{RouteCheck: check})
		go srv.Serve(tc.lns[i]) //nolint:errcheck
		t.Cleanup(srv.Shutdown)
		tc.servers = append(tc.servers, srv)
	}
	return tc
}

// kill shuts shard i down hard (server and listener).
func (tc *testCluster) kill(i int) {
	tc.servers[i].Shutdown()
	tc.lns[i].Close()
}

// shardFor maps a keyed first field to the index of its owning shard.
func (tc *testCluster) shardFor(t testing.TB, space string, first core.Value, arity int) int {
	t.Helper()
	key, ok := tspace.HashKey(space, first, arity)
	if !ok {
		t.Fatalf("HashKey(%v) not keyable", first)
	}
	own := tc.m.Owner(key)
	for i, n := range tc.m.Nodes() {
		if n.ID == own.ID {
			return i
		}
	}
	t.Fatalf("owner %s not in membership", own.ID)
	return -1
}

// keyOwnedBy scans ints for one whose owner is shard want.
func (tc *testCluster) keyOwnedBy(t testing.TB, space string, want int) int {
	t.Helper()
	for k := 0; k < 10000; k++ {
		if tc.shardFor(t, space, k, 2) == want {
			return k
		}
	}
	t.Fatalf("no key owned by shard %d in 10000 tries", want)
	return -1
}

func openTest(t testing.TB, tc *testCluster, cfg Config) *Client {
	t.Helper()
	if cfg.Dial.DialRetries == 0 {
		cfg.Dial = remote.DialConfig{
			DialRetries: 1,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			Timeout:     2 * time.Second,
		}
	}
	c := Open(tc.m, cfg)
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

// TestKeyedRoutingDeterministic: every keyed Put lands on exactly the
// shard rendezvous hashing names, and keyed Gets find their tuples there.
func TestKeyedRoutingDeterministic(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	sp := c.Space("jobs")

	const n = 60
	want := make([]int, len(tc.servers))
	for i := 0; i < n; i++ {
		if err := sp.Put(nil, tspace.Tuple{i, "v"}); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		want[tc.shardFor(t, "jobs", i, 2)]++
	}
	spread := 0
	for i, srv := range tc.servers {
		got := srv.Registry().OpenDefault("jobs").Len()
		if got != want[i] {
			t.Fatalf("shard %d depth = %d, want %d", i, got, want[i])
		}
		if got > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("keys landed on %d shard(s); hashing did not spread", spread)
	}
	// Keyed reads route to the same shard and find their tuple.
	for i := 0; i < n; i++ {
		tup, _, err := sp.Get(nil, tspace.Template{i, tspace.F("x")})
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if got, _ := tup[0].(int64); int(got) != i {
			t.Fatalf("Get(%d) returned %v", i, tup)
		}
	}
}

// TestWildcardFanOutExactlyOnce is the acceptance race test: concurrent
// keyed Puts across the shards while wildcard Gets fan out must consume
// each tuple at most once cluster-wide — no double-take from two Gets
// winning the same tuple, no lost tuple from a canceled loser dropping
// its match.
func TestWildcardFanOutExactlyOnce(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	sp := c.Space("work")

	const puts = 48
	const gets = 24
	var wg sync.WaitGroup
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := sp.Put(nil, tspace.Tuple{i}); err != nil {
				t.Errorf("Put(%d): %v", i, err)
			}
		}(i)
	}
	consumed := make(chan int, gets)
	for g := 0; g < gets; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tup, _, err := sp.Get(nil, tspace.Template{tspace.F("k")})
			if err != nil {
				t.Errorf("wildcard Get: %v", err)
				return
			}
			v, _ := tup[0].(int64)
			consumed <- int(v)
		}()
	}
	wg.Wait()
	close(consumed)
	if t.Failed() {
		t.FailNow()
	}
	c.Quiesce() // losers' compensation re-deposits must land before counting

	seen := make(map[int]bool)
	for v := range consumed {
		if seen[v] {
			t.Fatalf("tuple %d consumed twice", v)
		}
		seen[v] = true
	}
	// Drain the survivors; together with the consumed set they must cover
	// every deposited value exactly once.
	for {
		tup, _, err := sp.TryGet(nil, tspace.Template{tspace.F("k")})
		if errors.Is(err, tspace.ErrNoMatch) {
			break
		}
		if err != nil {
			t.Fatalf("drain TryGet: %v", err)
		}
		v, _ := tup[0].(int64)
		if seen[int(v)] {
			t.Fatalf("tuple %d both consumed and still present", v)
		}
		seen[int(v)] = true
	}
	if len(seen) != puts {
		t.Fatalf("accounted for %d tuples, want %d", len(seen), puts)
	}
}

// TestWildcardFanOutOnSTINGThreads runs the fan-out from substrate
// threads: branches fork as STING threads and the parent parks through
// BlockUntil rather than a channel.
func TestWildcardFanOutOnSTINGThreads(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	sp := c.Space("work")
	vm := testkit.VM(t, 2, 2)

	const n = 12
	for i := 0; i < n; i++ {
		if err := sp.Put(nil, tspace.Tuple{i}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	threads := make([]*core.Thread, n)
	results := make([]int64, n)
	for g := 0; g < n; g++ {
		g := g
		threads[g] = vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
			tup, _, err := sp.Get(ctx, tspace.Template{tspace.F("k")})
			if err != nil {
				return nil, err
			}
			results[g], _ = tup[0].(int64)
			return nil, nil
		}, core.WithName(fmt.Sprintf("fan-get-%d", g)))
	}
	for g, th := range threads {
		if _, err := core.JoinThread(th); err != nil {
			t.Fatalf("thread %d: %v", g, err)
		}
	}
	c.Quiesce()
	seen := make(map[int64]bool)
	for _, v := range results {
		if seen[v] {
			t.Fatalf("tuple %d consumed twice", v)
		}
		seen[v] = true
	}
	if got := sp.Len(); got != 0 {
		t.Fatalf("cluster Len after full drain = %d, want 0", got)
	}
}

// TestWildcardRdDoesNotConsume: a fan-out Rd returns a match and leaves
// the cluster-wide depth unchanged.
func TestWildcardRdDoesNotConsume(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	sp := c.Space("work")
	for i := 0; i < 6; i++ {
		if err := sp.Put(nil, tspace.Tuple{i}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, _, err := sp.Rd(nil, tspace.Template{tspace.F("k")}); err != nil {
		t.Fatalf("wildcard Rd: %v", err)
	}
	c.Quiesce()
	if got := sp.Len(); got != 6 {
		t.Fatalf("Len after Rd = %d, want 6", got)
	}
	all, err := sp.RdAll(nil, tspace.Template{tspace.F("k")})
	if err != nil {
		t.Fatalf("RdAll: %v", err)
	}
	if len(all) == 0 || len(all) > 3 {
		t.Fatalf("RdAll returned %d tuples, want 1..3 (one per matching shard)", len(all))
	}
}

// TestWildcardDeadline: a fan-out Get against an empty cluster with a
// deadline times out on every branch and reports the timeout.
func TestWildcardDeadline(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	start := time.Now()
	_, _, err := c.Space("empty").Deadline(100*time.Millisecond).Get(nil, tspace.Template{tspace.F("k")})
	if !errors.Is(err, remote.ErrTimeout) {
		t.Fatalf("Get err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("deadline fan-out took %v", time.Since(start))
	}
	c.Quiesce()
}

// TestFailover is acceptance: killing one shard leaves keyed ops for the
// surviving ranges and every wildcard Rd working, excludes the dead shard
// after its first failure, fails keyed writes and reads of its range fast,
// and reinstates it when it returns.
func TestFailover(t *testing.T) {
	tc := startTestCluster(t, 3)
	c := openTest(t, tc, Config{})
	sp := c.Space("jobs")

	const victim = 1
	deadKey := tc.keyOwnedBy(t, "jobs", victim)
	surviveKey := tc.keyOwnedBy(t, "jobs", 2)

	if err := sp.Put(nil, tspace.Tuple{surviveKey, "v"}); err != nil {
		t.Fatalf("Put survivor: %v", err)
	}
	tc.kill(victim)

	// First touch of the dead range fails with a transport error and
	// excludes the shard; after that, keyed ops there fail fast and typed.
	if err := sp.Put(nil, tspace.Tuple{deadKey, "v"}); err == nil {
		t.Fatal("Put to dead shard succeeded")
	}
	var down *ShardDownError
	if err := sp.Put(nil, tspace.Tuple{deadKey, "v"}); !errors.As(err, &down) {
		t.Fatalf("second Put to dead range = %v, want ShardDownError", err)
	}
	if down.Node != tc.m.Nodes()[victim].ID {
		t.Fatalf("ShardDownError names %s, want %s", down.Node, tc.m.Nodes()[victim].ID)
	}
	// Keyed reads of the dead range fail the same way: no other shard
	// holds its tuples, so none is asked.
	if _, _, err := sp.Rd(nil, tspace.Template{deadKey, tspace.F("x")}); !errors.As(err, &down) {
		t.Fatalf("keyed Rd of dead range = %v, want ShardDownError", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{deadKey, tspace.F("x")}); !errors.As(err, &down) {
		t.Fatalf("keyed TryRd of dead range = %v, want ShardDownError", err)
	}
	healthyCount := 0
	for _, h := range c.Health() {
		if h.Healthy {
			healthyCount++
		}
	}
	if healthyCount != 2 {
		t.Fatalf("healthy shards = %d, want 2", healthyCount)
	}

	// Keyed ops on surviving ranges keep working.
	if _, _, err := sp.Rd(nil, tspace.Template{surviveKey, tspace.F("x")}); err != nil {
		t.Fatalf("keyed Rd on survivor: %v", err)
	}
	// Wildcard reads succeed: the fan-out skips the excluded shard.
	if _, _, err := sp.Rd(nil, tspace.Template{tspace.F("k"), tspace.F("x")}); err != nil {
		t.Fatalf("wildcard Rd with dead shard: %v", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{tspace.F("k"), tspace.F("x")}); err != nil {
		t.Fatalf("wildcard TryRd with dead shard: %v", err)
	}
	c.Quiesce()

	// Bring the shard back on its old address and let the prober
	// reinstate it.
	addr := tc.m.Nodes()[victim].Addr
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	check, err := SelfCheck(tc.m, tc.m.Nodes()[victim].ID, 0)
	if err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	srv := remote.NewServer(testkit.VM(t, 2, 2), remote.ServerConfig{RouteCheck: check})
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)

	deadline = time.Now().Add(10 * time.Second)
	for {
		c.ProbeOnce()
		if h := c.Health(); h[victim].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never reinstated")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := sp.Put(nil, tspace.Tuple{deadKey, "v"}); err != nil {
		t.Fatalf("Put after reinstatement: %v", err)
	}
}

// TestKeyedOpsStayOnOwner: a keyed tuple is stored on its owner alone, so
// with the owner killed every keyed op on its key fails: the first touch
// with the transport error that excludes the owner, every later one fast
// with ShardDownError. None answers ErrNoMatch for the tuple that exists,
// and none parks on a shard that will never hold it.
func TestKeyedOpsStayOnOwner(t *testing.T) {
	for _, tt := range []struct {
		name string
		op   func(*Space, *core.Context, tspace.Template) (tspace.Tuple, tspace.Bindings, error)
	}{
		{"TryRd", (*Space).TryRd},
		{"Rd", (*Space).Rd},
		{"TryGet", (*Space).TryGet},
		{"Get", (*Space).Get},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := startTestCluster(t, 3)
			c := openTest(t, tc, Config{})
			sp := c.Space("jobs")
			const victim = 1
			key := tc.keyOwnedBy(t, "jobs", victim)
			if err := sp.Put(nil, tspace.Tuple{key, "v"}); err != nil {
				t.Fatalf("Put: %v", err)
			}
			tc.kill(victim)

			// The op runs with no deadline in a goroutine that must return
			// within 2 s, so an op parked for ever fails the test rather
			// than hanging it.
			run := func() error {
				t.Helper()
				done := make(chan error, 1)
				go func() {
					_, _, err := tt.op(sp, nil, tspace.Template{key, tspace.F("x")})
					done <- err
				}()
				select {
				case err := <-done:
					return err
				case <-time.After(2 * time.Second):
					t.Fatalf("%s of a dead owner's key did not return within 2s", tt.name)
					return nil
				}
			}
			if err := run(); err == nil || !transportError(err) {
				t.Fatalf("first %s = %v, want the owner's transport error", tt.name, err)
			}
			var down *ShardDownError
			if err := run(); !errors.As(err, &down) {
				t.Fatalf("second %s = %v, want ShardDownError", tt.name, err)
			}
			if want := tc.m.Nodes()[victim].ID; down.Node != want {
				t.Fatalf("ShardDownError names %s, want %s", down.Node, want)
			}
		})
	}
}

// TestSelfCheckRedirect: a keyed op against a guarded server that does
// not own its key earns a typed redirect naming the owner, even when the
// server is the key's second-ranked node: a keyed tuple is stored on its
// owner alone, so no other node may answer for it.
func TestSelfCheckRedirect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m, err := NewMembership([]Node{
		{ID: "n1", Addr: ln.Addr().String()},
		{ID: "n2", Addr: "10.0.0.2:7000"},
		{ID: "n3", Addr: "10.0.0.3:7000"},
	})
	if err != nil {
		t.Fatalf("NewMembership: %v", err)
	}
	check, err := SelfCheck(m, "n1", 0)
	if err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	if _, err := SelfCheck(m, "n1", 2); err == nil {
		t.Fatal("SelfCheck accepted slack 2")
	}
	srv := remote.NewServer(testkit.VM(t, 2, 2), remote.ServerConfig{RouteCheck: check})
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)

	rc, err := remote.Dial(nil, ln.Addr().String(), remote.DialConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { rc.Close() }) //nolint:errcheck
	sp := rc.Space("jobs")

	// without[id] is the membership less node id. Rendezvous hashing moves
	// only a removed node's keys, so a key's owner in without[owner] is its
	// second-ranked node.
	without := map[string]*Membership{}
	for _, drop := range m.Nodes() {
		var rest []Node
		for _, n := range m.Nodes() {
			if n.ID != drop.ID {
				rest = append(rest, n)
			}
		}
		without[drop.ID], _ = NewMembership(rest)
	}
	// Find keys where n1 is owner, second-ranked, and third-ranked.
	ownKey, secondKey, thirdKey := -1, -1, -1
	for k := 0; k < 10000 && (ownKey < 0 || secondKey < 0 || thirdKey < 0); k++ {
		key, _ := tspace.HashKey("jobs", k, 2)
		own := m.Owner(key)
		switch {
		case own.ID == "n1":
			if ownKey < 0 {
				ownKey = k
			}
		case without[own.ID].Owner(key).ID == "n1":
			if secondKey < 0 {
				secondKey = k
			}
		default:
			if thirdKey < 0 {
				thirdKey = k
			}
		}
	}
	if ownKey < 0 || secondKey < 0 || thirdKey < 0 {
		t.Fatalf("key search failed: own=%d second=%d third=%d", ownKey, secondKey, thirdKey)
	}
	if err := sp.Put(nil, tspace.Tuple{ownKey, "v"}); err != nil {
		t.Fatalf("Put owned key: %v", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{ownKey, tspace.F("x")}); err != nil {
		t.Fatalf("TryRd owned key: %v", err)
	}
	wantRedirect := func(what string, k int, err error) {
		t.Helper()
		var re *remote.RedirectError
		if !errors.As(err, &re) {
			t.Fatalf("%s = %v, want RedirectError", what, err)
		}
		key, _ := tspace.HashKey("jobs", k, 2)
		if want := m.Owner(key); re.Node != want.ID || re.Addr != want.Addr {
			t.Fatalf("%s: redirect names %s (%s), want %s (%s)", what, re.Node, re.Addr, want.ID, want.Addr)
		}
	}
	_, _, err = sp.TryRd(nil, tspace.Template{secondKey, tspace.F("x")})
	wantRedirect("second-ranked TryRd", secondKey, err)
	wantRedirect("second-ranked Put", secondKey, sp.Put(nil, tspace.Tuple{secondKey, "v"}))
	wantRedirect("third-ranked Put", thirdKey, sp.Put(nil, tspace.Tuple{thirdKey, "v"}))
	// Wildcard templates pass everywhere.
	if _, _, err := sp.TryRd(nil, tspace.Template{tspace.F("k"), tspace.F("x")}); err != nil {
		t.Fatalf("wildcard TryRd against guarded server: %v", err)
	}
}

// TestMembershipParsing covers the JSON, spec, and error paths.
func TestMembershipParsing(t *testing.T) {
	m, err := ParseJSON([]byte(`{"nodes":[{"id":"a","addr":"h1:1"},{"id":"b","addr":"h2:2","weight":2}]}`))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if n, ok := m.ByID("b"); !ok || n.Weight != 2 {
		t.Fatalf("ByID(b) = %+v, %v", n, ok)
	}
	if _, err := ParseJSON([]byte(`{"nodes":[{"id":"a","addr":"h:1"},{"id":"a","addr":"h:2"}]}`)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := ParseJSON([]byte(`{"nodes":[]}`)); err == nil {
		t.Fatal("empty membership accepted")
	}
	m, err = ParseSpec("n1=h1:1, n2=h2:2, h3:3")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if m.Len() != 3 {
		t.Fatalf("spec Len = %d", m.Len())
	}
	if _, ok := m.ByID("shard3"); !ok {
		t.Fatal("bare addr did not get positional id")
	}
}

// TestRendezvousProperties pins the placement behaviour the cluster rests
// on: determinism, minimal disruption on node loss, and weight skew.
func TestRendezvousProperties(t *testing.T) {
	nodes := []Node{{ID: "a", Addr: "h:1"}, {ID: "b", Addr: "h:2"}, {ID: "c", Addr: "h:3"}}
	m, _ := NewMembership(nodes)
	m2, _ := NewMembership([]Node{nodes[0], nodes[2]}) // b removed

	const keys = 3000
	counts := map[string]int{}
	moved := 0
	for k := 0; k < keys; k++ {
		key, ok := tspace.HashKey("s", k, 2)
		if !ok {
			t.Fatalf("HashKey(%d) not keyable", k)
		}
		own := m.Owner(key)
		counts[own.ID]++
		after := m2.Owner(key)
		if own.ID != "b" && after.ID != own.ID {
			t.Fatalf("key %d moved %s→%s though its owner survived", k, own.ID, after.ID)
		}
		if own.ID == "b" {
			moved++
		}
	}
	for id, n := range counts {
		if n < keys/6 {
			t.Fatalf("node %s owns only %d/%d keys", id, n, keys)
		}
	}
	if moved == 0 {
		t.Fatal("node b owned nothing")
	}

	// A weight-3 node should own roughly 3x a weight-1 node's share.
	wm, _ := NewMembership([]Node{{ID: "x", Addr: "h:1", Weight: 3}, {ID: "y", Addr: "h:2", Weight: 1}})
	wx := 0
	for k := 0; k < keys; k++ {
		key, _ := tspace.HashKey("s", k, 2)
		if wm.Owner(key).ID == "x" {
			wx++
		}
	}
	ratio := float64(wx) / float64(keys-wx)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("weight-3:1 ownership ratio = %.2f, want ~3", ratio)
	}
}

// TestStableHashIntWidths: int and int64 keys route identically (the
// client puts int, the wire delivers int64).
func TestStableHashIntWidths(t *testing.T) {
	h1, ok1 := tspace.Hash(int(5))
	h2, ok2 := tspace.Hash(int64(5))
	h3, ok3 := tspace.Hash(int32(5))
	if !ok1 || !ok2 || !ok3 || h1 != h2 || h2 != h3 {
		t.Fatalf("int width hashes differ: %v/%v/%v", h1, h2, h3)
	}
	if _, ok := tspace.Hash(tspace.F("x")); ok {
		t.Fatal("Formal hashed as keyable")
	}
	if _, ok := tspace.HashKey("s", tspace.F("x"), 2); ok {
		t.Fatal("Formal first field keyed instead of fanning out")
	}
	k1, ok := tspace.HashKey("s", nil, 0)
	k2, _ := tspace.HashKey("s", nil, 0)
	if !ok || k1 != k2 {
		t.Fatal("arity-0 home-shard key unstable")
	}
}
