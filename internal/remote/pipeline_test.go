package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sio"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// startServerCfg is startServer with a caller-supplied config.
func startServerCfg(t testing.TB, cfg ServerConfig) (*Server, string) {
	t.Helper()
	vm := testkit.VM(t, 2, 2)
	srv := NewServer(vm, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// TestHelloRefusesOtherVersion: a client stating any version but this
// build's is answered with the typed unsupported error and hung up on —
// the server never downgrades.
func TestHelloRefusesOtherVersion(t *testing.T) {
	srv, addr := startServer(t)
	fc, frames, errs := rawConn(t, addr)
	hello, err := appendRequest(nil, request{op: opHello})
	if err != nil {
		t.Fatalf("encode hello: %v", err)
	}
	hello[len(hello)-1] = protocolVersion - 1
	if err := fc.WriteFrame(hello); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	select {
	case frame := <-frames:
		r, err := decodeResponse(frame)
		if err != nil {
			t.Fatalf("reply undecodable: %v", err)
		}
		if r.op != respErr || r.code != codeUnsupported {
			t.Fatalf("reply op=%d code=%d, want respErr/codeUnsupported", r.op, r.code)
		}
		if err := wireError(r, "hello", "", 0); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("wireError = %v, want ErrUnsupported", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to a version-3 HELLO")
	}
	select {
	case err := <-errs:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("terminal err = %v, want EOF (connection closed)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server kept a version-3 peer connected")
	}
	if n := srv.Stats().ProtoErrors; n != 0 {
		t.Fatalf("proto errors = %d: another version is unsupported, not malformed", n)
	}
}

// TestDialRefusesOtherVersion: a server answering HELLO with another
// version fails Dial with ErrUnsupported at once — one connect, the retry
// budget untouched, since no retry changes what the peer speaks.
func TestDialRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var connects atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			connects.Add(1)
			fc := sio.NewFrameConn(nc, sio.MaxFrame, time.Second)
			fc.Start(func(frame []byte, err error) {
				if err != nil {
					fc.Close()
					return
				}
				ok := appendOK(nil, 0)
				ok[len(ok)-1] = protocolVersion - 1
				fc.WriteFrame(ok) //nolint:errcheck
			})
		}
	}()
	_, err = Dial(nil, ln.Addr().String(), DialConfig{DialRetries: 4, BaseBackoff: time.Millisecond})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Dial err = %v, want ErrUnsupported", err)
	}
	if n := connects.Load(); n != 1 {
		t.Fatalf("Dial connected %d times, want 1 (the refusal is terminal)", n)
	}
}

// TestBatchRoundTrip: with batching on, concurrent Puts coalesce into
// BATCH frames, land in their spaces, and are counted by both sides.
func TestBatchRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{Batch: true})
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := c.Space(fmt.Sprintf("bucket%d", i%4))
			if err := sp.Put(nil, tspace.Tuple{"item", int64(i)}); err != nil {
				t.Errorf("Put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for b := 0; b < 4; b++ {
		total += c.Space(fmt.Sprintf("bucket%d", b)).Len()
	}
	if total != n {
		t.Fatalf("deposited %d tuples, want %d", total, n)
	}
	s := srv.Stats()
	if s.BatchPuts != n {
		t.Fatalf("server BatchPuts = %d, want %d (every put should batch)", s.BatchPuts, n)
	}
	if s.Ops["batch"] == 0 || s.Ops["batch"] > n {
		t.Fatalf("batch frames = %d, want within [1, %d]", s.Ops["batch"], n)
	}
	if c.metrics.batchedPuts.Load() != n {
		t.Fatalf("client batchedPuts = %d, want %d", c.metrics.batchedPuts.Load(), n)
	}
}

// TestBatchRouteCheckPerEntry: one misrouted tuple inside a batch fails
// alone with its typed redirect; its neighbours land.
func TestBatchRouteCheckPerEntry(t *testing.T) {
	srv, addr := startServerCfg(t, ServerConfig{
		RouteCheck: func(space string, tup tspace.Tuple, tpl tspace.Template) error {
			if space == "elsewhere" {
				return &RedirectError{Op: "put", Space: space, Node: "n2", Addr: "10.0.0.2:7000"}
			}
			return nil
		},
	})
	c := dialTest(t, addr, DialConfig{Batch: true})
	sp := c.Space("here")
	bad := c.Space("elsewhere")
	okA, err := sp.PutAsync(nil, tspace.Tuple{"a"})
	if err != nil {
		t.Fatalf("PutAsync a: %v", err)
	}
	badP, err := bad.PutAsync(nil, tspace.Tuple{"b"})
	if err != nil {
		t.Fatalf("PutAsync b: %v", err)
	}
	okC, err := sp.PutAsync(nil, tspace.Tuple{"c"})
	if err != nil {
		t.Fatalf("PutAsync c: %v", err)
	}
	if err := okA.Wait(nil); err != nil {
		t.Fatalf("a: %v", err)
	}
	if err := okC.Wait(nil); err != nil {
		t.Fatalf("c: %v", err)
	}
	err = badP.Wait(nil)
	if !errors.Is(err, ErrRedirect) {
		t.Fatalf("misrouted entry err = %v, want ErrRedirect", err)
	}
	var re *RedirectError
	if !errors.As(err, &re) || re.Node != "n2" {
		t.Fatalf("redirect = %+v, want node n2", re)
	}
	if got := sp.Len(); got != 2 {
		t.Fatalf("good entries deposited = %d, want 2", got)
	}
	if srv.Stats().Redirects != 1 {
		t.Fatalf("Redirects = %d, want 1", srv.Stats().Redirects)
	}
}

// TestBatchSplitsOversizedFrame: a flush whose entries exceed the frame
// limit together (but not individually) splits recursively instead of
// failing.
func TestBatchSplitsOversizedFrame(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{Batch: true})
	sp := c.Space("big")
	big := strings.Repeat("x", 8<<10) // 300 × 8KiB ≈ 2.4 MiB > sio.MaxFrame
	const n = 300
	pending := make([]*PendingPut, 0, n)
	for i := 0; i < n; i++ {
		p, err := sp.PutAsync(nil, tspace.Tuple{int64(i), big})
		if err != nil {
			t.Fatalf("PutAsync %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		if err := p.Wait(nil); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if got := sp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestBatchedPutAllocs: full BATCH frames (256 Puts of a 256-byte payload,
// ~70 KB) are encoded into and read out of pooled buffers, so a batched
// Put allocates its tuple, call and entry, not a share of two fresh frames.
// Windows of 1,024 PutAsync, as remote_stream sends them; the process's
// allocation is counted over each window's Puts and acks, and the space is
// drained between windows outside the count.
func TestBatchedPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	srv, addr := startServer(t)
	sp := dialTest(t, addr, DialConfig{Batch: true}).Space("stream")
	ts := srv.Registry().OpenDefault("stream")
	payload := strings.Repeat("p", 256)
	const window, warm, measured = 1024, 8, 32
	pending := make([]*PendingPut, 0, window)
	var seq int64
	var bytes uint64
	var ms runtime.MemStats
	for w := 0; w < warm+measured; w++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		pending = pending[:0]
		for range window {
			p, err := sp.PutAsync(nil, tspace.Tuple{seq, "s", payload})
			if err != nil {
				t.Fatalf("PutAsync %d: %v", seq, err)
			}
			pending = append(pending, p)
			seq++
		}
		for _, p := range pending {
			if err := p.Wait(nil); err != nil {
				t.Fatalf("Wait: %v", err)
			}
		}
		runtime.ReadMemStats(&ms)
		if w >= warm {
			bytes += ms.TotalAlloc - before
		}
		for i := seq - window; i < seq; i++ {
			if _, _, err := ts.TryGet(nil, tspace.Template{i, "s", tspace.F("")}); err != nil {
				t.Fatalf("drain %d: %v", i, err)
			}
		}
	}
	perPut := bytes / (measured * window)
	t.Logf("%d bytes allocated per batched Put", perPut)
	if perPut > 1300 {
		t.Errorf("%d bytes allocated per batched Put, want ≤ 1300", perPut)
	}
}

// TestPutAsyncWindow: the window-of-N idiom — many unacknowledged puts in
// flight on one connection, acknowledged out of band.
func TestPutAsyncWindow(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("window")
	const n = 128
	pending := make([]*PendingPut, 0, n)
	for i := 0; i < n; i++ {
		p, err := sp.PutAsync(nil, tspace.Tuple{"w", int64(i)})
		if err != nil {
			t.Fatalf("PutAsync %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		if err := p.Wait(nil); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	if got := sp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestPipelinedBlockingOpsDoNotHeadOfLineBlock: a parked Get on the same
// connection must not delay ops issued after it.
func TestPipelinedBlockingOpsDoNotHeadOfLineBlock(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Space("park").Get(nil, tspace.Template{"never", tspace.F("x")})
		got <- err
	}()
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 1
	}, "Get never parked")
	// With the Get parked, later ops on the same connection must complete.
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := c.Space("flow").Put(nil, tspace.Tuple{"p", int64(i)}); err != nil {
			t.Fatalf("Put behind parked Get: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pipelined puts took %v behind a parked Get", elapsed)
	}
	// Satisfy the parked Get so the test exits cleanly.
	if err := c.Space("park").Put(nil, tspace.Tuple{"never", int64(1)}); err != nil {
		t.Fatalf("unblock Put: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("parked Get: %v", err)
	}
	// The server sampled depth > 1 at some arrival.
	if h := srv.stats.PipelineDepth; h == nil || h.Count() == 0 {
		t.Fatal("pipeline-depth histogram never sampled")
	}
}

// TestCloseFailsPendingBlockingGet: Close must fail a parked blocking Get
// promptly with the typed ErrClientClosed — not hang on the drain group
// (regression: Close used to wg.Wait on blocking ops with no bound).
func TestCloseFailsPendingBlockingGet(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(nil, addr, DialConfig{DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Space("park").Get(nil, tspace.Template{"never"})
		got <- err
	}()
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 1
	}, "Get never parked")
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("parked Get err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Get hung through Close")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v, want prompt drain", elapsed)
	}
	// The server notices the hangup and withdraws its parked waiter.
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().Blocked == 0
	}, "server never withdrew the waiter")
}

// TestConnPoolShards: with Conns > 1 the client fans keyed ops across the
// pool (by space+first-field hash) while preserving Put/Get rendezvous.
func TestConnPoolShards(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{Conns: 4})
	sp := c.Space("jobs")
	const keys = 32
	for i := 0; i < keys; i++ {
		if err := sp.Put(nil, tspace.Tuple{fmt.Sprintf("k%d", i), int64(i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		tup, _, err := sp.TryGet(nil, tspace.Template{fmt.Sprintf("k%d", i), tspace.F("v")})
		if err != nil {
			t.Fatalf("TryGet %d: %v", i, err)
		}
		if tup[1] != int64(i) {
			t.Fatalf("TryGet %d = %v", i, tup)
		}
	}
	dialed := 0
	for _, cc := range c.conns {
		cc.mu.Lock()
		if cc.fc != nil {
			dialed++
		}
		cc.mu.Unlock()
	}
	if dialed < 2 {
		t.Fatalf("dialed %d pool connections, want ≥2 (keys should shard)", dialed)
	}
	// Each pooled connection announced the pool size after its handshake.
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.maxAnnouncedPool() == 4
	}, "server never learned the announced pool size")
}

// TestBatchWireRoundTrip pins the BATCH/respBatch wire encoding itself.
func TestBatchWireRoundTrip(t *testing.T) {
	req := request{op: opBatch, id: 42, batch: []batchEntry{
		{space: "a", tuple: tspace.Tuple{"x", int64(1)}},
		{space: "b", tuple: tspace.Tuple{true, 2.5, nil}},
	}}
	frame, err := appendRequest(nil, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeRequest(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.id != 42 || len(got.batch) != 2 || got.batch[0].space != "a" ||
		got.batch[1].space != "b" || got.batch[0].tuple[1] != int64(1) {
		t.Fatalf("decoded %+v", got)
	}

	sts := []batchStatus{{code: 0}, {code: codeRedirect, msg: "n2 10.0.0.2:7000"}, {code: 0}}
	r, err := decodeResponse(appendBatchResp(nil, 42, sts))
	if err != nil {
		t.Fatalf("decode resp: %v", err)
	}
	if r.op != respBatch || r.id != 42 || len(r.batch) != 3 ||
		r.batch[1].code != codeRedirect || r.batch[1].msg != "n2 10.0.0.2:7000" ||
		r.batch[0].code != 0 || r.batch[0].msg != "" {
		t.Fatalf("decoded %+v", r)
	}

	// Bounds: an empty batch and an oversized one are rejected at encode.
	if _, err := appendRequest(nil, request{op: opBatch, id: 1}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty batch encode err = %v, want ErrProtocol", err)
	}
	over := make([]batchEntry, maxBatchOps+1)
	for i := range over {
		over[i] = batchEntry{space: "s", tuple: tspace.Tuple{int64(i)}}
	}
	if _, err := appendRequest(nil, request{op: opBatch, id: 1, batch: over}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized batch encode err = %v, want ErrProtocol", err)
	}
}
