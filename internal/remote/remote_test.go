package remote

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// startServer boots a machine/VM pair, a fabric server on it, and a
// loopback listener, all torn down with the test.
func startServer(t testing.TB) (*Server, string) {
	t.Helper()
	return startServerCfg(t, ServerConfig{})
}

func dialTest(t testing.TB, addr string, cfg DialConfig) *Client {
	t.Helper()
	c, err := Dial(nil, addr, cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

func TestRemoteRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("jobs")

	if err := sp.Put(nil, tspace.Tuple{"point", 3, 4}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if n := sp.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	tup, b, err := sp.Rd(nil, tspace.Template{"point", tspace.F("x"), tspace.F("y")})
	if err != nil {
		t.Fatalf("Rd: %v", err)
	}
	// Integers travel as int64; matching still works because templates
	// normalize widths.
	if tup[0] != "point" || b["x"] != int64(3) || b["y"] != int64(4) {
		t.Fatalf("Rd tuple %v bindings %v", tup, b)
	}
	if n := sp.Len(); n != 1 {
		t.Fatalf("Len after Rd = %d, want 1", n)
	}
	if _, _, err := sp.Get(nil, tspace.Template{"point", 3, tspace.F("y")}); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, _, err := sp.TryGet(nil, tspace.Template{"point", tspace.F(""), tspace.F("")}); err != tspace.ErrNoMatch {
		t.Fatalf("TryGet on empty = %v, want ErrNoMatch", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{"missing"}); err != tspace.ErrNoMatch {
		t.Fatalf("TryRd = %v, want ErrNoMatch", err)
	}
	if sp.Kind() != tspace.KindRemote {
		t.Fatalf("Kind = %v", sp.Kind())
	}
	if _, err := sp.Spawn(nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Spawn err = %v, want ErrUnsupported", err)
	}
}

// TestRemoteBlockingGetParks is acceptance (a): a blocking Get from one
// client parks a STING thread on the server — visible in the Blocked
// gauge and the space's waiter count — until a Put from another client
// matches it.
func TestRemoteBlockingGetParks(t *testing.T) {
	srv, addr := startServer(t)
	getter := dialTest(t, addr, DialConfig{})
	putter := dialTest(t, addr, DialConfig{})

	done := make(chan error, 1)
	var got tspace.Bindings
	go func() {
		_, b, err := getter.Space("jobs").Get(nil, tspace.Template{"job", tspace.F("n")})
		got = b
		done <- err
	}()

	// The waiter must be parked server-side: a registered HB entry on the
	// space and a non-zero Blocked gauge — not an OS thread spinning.
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 1
	}, "blocked gauge never rose")
	ts, ok := srv.Registry().Lookup("jobs")
	if !ok {
		t.Fatal("space not created by blocking Get")
	}
	if w := ts.(tspace.WaiterCount).Waiters(); w != 1 {
		t.Fatalf("space waiters = %d, want 1", w)
	}
	select {
	case err := <-done:
		t.Fatalf("Get returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := putter.Space("jobs").Put(nil, tspace.Tuple{"job", 42}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get never unblocked after matching Put")
	}
	if got["n"] != int64(42) {
		t.Fatalf("bindings %v", got)
	}
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 0
	}, "blocked gauge never drained")
}

// TestRemoteDisconnectReleasesWaiter is acceptance (b): a client that
// hangs up mid-Get must not leak its registration in the space's blocked
// table — the cancel token withdraws the parked thread.
func TestRemoteDisconnectReleasesWaiter(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Space("jobs").Get(nil, tspace.Template{"job", tspace.F("n")})
		done <- err
	}()
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 1
	}, "waiter never parked")

	cc := c.conns[0]
	cc.mu.Lock()
	fc := cc.fc
	cc.mu.Unlock()
	fc.Conn().Close() // abrupt hangup, no protocol goodbye

	testkit.Eventually(t, 5*time.Second, func() bool {
		s := srv.Stats()
		return s.Blocked == 0 && s.Canceled >= 1
	}, "server never withdrew the disconnected waiter")
	ts, _ := srv.Registry().Lookup("jobs")
	testkit.Eventually(t, 5*time.Second, func() bool {
		return ts.(tspace.WaiterCount).Waiters() == 0
	}, "HB registration leaked after disconnect")

	// A later Put must not be consumed by the ghost of the dead Get.
	putter := dialTest(t, addr, DialConfig{})
	if err := putter.Space("jobs").Put(nil, tspace.Tuple{"job", 7}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := putter.Space("jobs").Len(); n != 1 {
		t.Fatalf("depth after post-disconnect Put = %d, want 1", n)
	}
	<-done // the client-side call fails with a connection error; ignore which
}

// TestRemoteStatsCounters is acceptance (c): the Stats snapshot reflects
// the operations served, and it travels intact over the STATS wire op.
func TestRemoteStatsCounters(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("stats-space")

	const puts, gets, trys = 5, 2, 3
	for i := 0; i < puts; i++ {
		if err := sp.Put(nil, tspace.Tuple{"n", i}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < gets; i++ {
		if _, _, err := sp.Get(nil, tspace.Template{"n", i}); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	for i := 0; i < trys; i++ {
		_, _, err := sp.TryGet(nil, tspace.Template{"absent"})
		if err != tspace.ErrNoMatch {
			t.Fatalf("TryGet: %v", err)
		}
	}

	ms, err := c.Stats(nil)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	// The wire reply matches the server's own view of the counters we
	// exercised (gauges and byte counts move with the STATS call itself).
	local := srv.Stats()
	for op, want := range map[string]uint64{"put": puts, "get": gets, "tryget": trys} {
		if m, _ := sample(ms, "sting_remote_ops_total", obs.L("op", op)); uint64(m.Value) != want || local.Ops[op] != want {
			t.Fatalf("op %s: wire %v, local %d, want %d", op, m.Value, local.Ops[op], want)
		}
	}
	if m, _ := sample(ms, "sting_remote_ops_total", obs.L("op", "hello")); m.Value == 0 {
		t.Fatal("hello not counted")
	}
	if m, _ := sample(ms, "sting_tspace_depth", obs.L("space", "stats-space")); int(m.Value) != puts-gets ||
		local.SpaceDepths["stats-space"] != puts-gets {
		t.Fatalf("depth: wire %v, local %v, want %d", m.Value, local.SpaceDepths, puts-gets)
	}
	for _, name := range []string{"sting_remote_conns_active", "sting_remote_conns_total",
		"sting_remote_bytes_in_total", "sting_remote_bytes_out_total"} {
		if m, _ := sample(ms, name); m.Value < 1 {
			t.Fatalf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// TestRemoteDeadline: a blocking Get with a deadline returns the typed
// timeout error and leaves no waiter behind.
func TestRemoteDeadline(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})

	start := time.Now()
	_, _, err := c.Space("jobs").Deadline(80*time.Millisecond).
		Get(nil, tspace.Template{"job", tspace.F("n")})
	if err == nil {
		t.Fatal("deadline Get succeeded on an empty space")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout match", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TimeoutError", err)
	}
	if !te.Timeout() || te.Space != "jobs" || te.Op != "get" {
		t.Fatalf("timeout error fields: %+v", te)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("returned after %v, before the deadline", elapsed)
	}
	testkit.Eventually(t, 5*time.Second, func() bool {
		s := srv.Stats()
		return s.Timeouts == 1 && s.Blocked == 0
	}, "timeout not accounted / waiter leaked")
	ts, _ := srv.Registry().Lookup("jobs")
	if w := ts.(tspace.WaiterCount).Waiters(); w != 0 {
		t.Fatalf("waiters = %d after timeout", w)
	}
}

// TestRemoteShutdownDrains: Shutdown withdraws parked waiters with a
// shutdown error rather than leaving clients hanging.
func TestRemoteShutdownDrains(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Space("jobs").Get(nil, tspace.Template{"job"})
		done <- err
	}()
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 1
	}, "waiter never parked")

	srv.Shutdown()
	select {
	case err := <-done:
		// Either the shutdown error arrived, or the connection died first;
		// both are drains, silence is the failure mode.
		if err == nil {
			t.Fatal("Get succeeded during shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get hung through server shutdown")
	}
}

// TestRemoteFromSTINGThread drives the client from substrate threads: the
// response wait must park via BlockUntil, not stall the VP — with VPs==1
// a stalled VP would deadlock the matching Put thread.
func TestRemoteFromSTINGThread(t *testing.T) {
	_, addr := startServer(t)
	vm := testkit.VM(t, 1, 1) // one VP: any VP-stalling wait deadlocks
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("pipe")

	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		getter := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			_, b, err := sp.Get(cc, tspace.Template{"msg", tspace.F("v")})
			if err != nil {
				return nil, err
			}
			return []core.Value{b["v"]}, nil
		}, nil)
		if err := sp.Put(ctx, tspace.Tuple{"msg", "hi"}); err != nil {
			return err
		}
		v, err := ctx.Value1(getter)
		if err != nil {
			return err
		}
		if v != "hi" {
			t.Errorf("value %v", v)
		}
		return nil
	})
}

// TestRoundTripAllocs pins what one loopback round trip allocates, client
// and server together: a Put and a Get with a deadline, both waited on from
// a goroutine with no STING context. Neither wait's timer nor an idle
// processor allocates per round trip.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	_, addr := startServer(t)
	sp := dialTest(t, addr, DialConfig{}).Space("allocs").Deadline(time.Second)
	tup, tpl := tspace.Tuple{"k", int64(1)}, tspace.Template{"k", int64(1)}
	roundTrip := func() {
		if err := sp.Put(nil, tup); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sp.Get(nil, tpl); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the connection's pools
	if n := testing.AllocsPerRun(2000, roundTrip); n > 11 {
		t.Errorf("%v allocations per round trip, want ≤ 11 (9 measured)", n)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestWaitTimerReuse: a pooled wait timer that fired and was never drained
// must not end a later wait early. A Get that times out at 1ms is followed
// by one with a 500ms deadline whose tuple is put 20ms in; before it, the
// pool is emptied and filled with such fired timers, so the second Get's
// wait runs on one. With timer channels that buffer a fire past Stop (Go
// before 1.23, or GODEBUG=asynctimerchan=1) that wait times out at once.
func TestWaitTimerReuse(t *testing.T) {
	srv, addr := startServer(t)
	sp := dialTest(t, addr, DialConfig{}).Space("reuse")
	if _, _, err := sp.Deadline(time.Millisecond).Get(nil, tspace.Template{"k"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first Get: %v, want a timeout", err)
	}
	runtime.GC() // two collections empty a sync.Pool
	runtime.GC()
	fired := make([]*time.Timer, 64) // enough that any P's Get finds one
	for i := range fired {
		fired[i] = time.NewTimer(time.Nanosecond)
	}
	time.Sleep(time.Millisecond)
	for _, tm := range fired {
		tm.Stop()
		waitTimers.Put(tm)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		srv.Registry().OpenDefault("reuse").Put(nil, tspace.Tuple{"k"}) //nolint:errcheck
	}()
	if _, _, err := sp.Deadline(500*time.Millisecond).Get(nil, tspace.Template{"k"}); err != nil {
		t.Fatalf("second Get: %v", err)
	}
}
