package remote

import (
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sio"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// droppingListener closes the first drop connections right after accept —
// the fault the client's dial retry is built for (a server still coming
// up, a flaky proxy). Later connections pass through untouched.
type droppingListener struct {
	net.Listener
	drop     int32
	accepted atomic.Int32
	dropped  atomic.Int32
}

func (dl *droppingListener) Accept() (net.Conn, error) {
	for {
		c, err := dl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if n := dl.accepted.Add(1); n <= dl.drop {
			dl.dropped.Add(1)
			c.Close()
			continue
		}
		return c, nil
	}
}

// startDroppingServer serves the fabric behind a listener that kills the
// first drop connections.
func startDroppingServer(t *testing.T, drop int32) (*droppingListener, string) {
	t.Helper()
	srv, _ := startServer(t) // its own listener stays idle; we add a faulty one
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dl := &droppingListener{Listener: ln, drop: drop}
	go func() {
		for {
			c, err := dl.Accept()
			if err != nil {
				return
			}
			srv.addConn(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return dl, ln.Addr().String()
}

// TestDialRetriesTransientFailures: with the first 3 connections dropped,
// Dial must back off and land on the 4th.
func TestDialRetriesTransientFailures(t *testing.T) {
	dl, addr := startDroppingServer(t, 3)
	start := time.Now()
	c, err := Dial(nil, addr, DialConfig{
		DialRetries: 4,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial through 3 drops: %v", err)
	}
	defer c.Close() //nolint:errcheck
	if got := dl.dropped.Load(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Three retries at 5/10/20ms backoff: the elapsed time shows the
	// client actually backed off rather than hammering.
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("dial finished in %v; backoff not applied", elapsed)
	}
	if err := c.Space("x").Put(nil, tspace.Tuple{"ok"}); err != nil {
		t.Fatalf("Put after retried dial: %v", err)
	}
}

// TestDialRetriesExhausted: when the fault outlasts the budget, Dial
// reports the underlying error instead of hanging.
func TestDialRetriesExhausted(t *testing.T) {
	_, addr := startDroppingServer(t, 100)
	_, err := Dial(nil, addr, DialConfig{
		DialRetries: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Timeout:     200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Dial succeeded through a dead listener")
	}
}

// TestDialConnectionRefused: nothing listening at all — the connect
// itself fails, and the bounded retry still terminates.
func TestDialConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; connects now get refused
	_, err = Dial(nil, addr, DialConfig{
		DialRetries: 1,
		BaseBackoff: time.Millisecond,
	})
	if err == nil {
		t.Fatal("Dial succeeded with nothing listening")
	}
}

// TestOpRedialsAfterConnLoss: when the connection dies between operations
// the next op redials transparently — its frame was never written, so the
// retry is safe.
func TestOpRedialsAfterConnLoss(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	sp := c.Space("jobs")
	if err := sp.Put(nil, tspace.Tuple{"a", 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Kill the transport out from under the client.
	cc := c.conns[0]
	cc.mu.Lock()
	fc := cc.fc
	cc.mu.Unlock()
	fc.Conn().Close()
	// The very next op may race the reader noticing the death; the retry
	// budget absorbs it either way.
	if err := sp.Put(nil, tspace.Tuple{"b", 2}); err != nil {
		t.Fatalf("Put after conn loss: %v", err)
	}
	if n := sp.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// TestInFlightFailsOnConnLoss: an op whose frame already left must NOT be
// retried (a second Put could double-deposit); it fails with a
// disconnection error instead.
func TestInFlightFailsOnConnLoss(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{OpRetries: 5})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Space("jobs").Get(nil, tspace.Template{"never"})
		done <- err
	}()
	// Wait for the Get frame to be on the wire (pending call registered).
	deadline := time.Now().Add(5 * time.Second)
	cc := c.conns[0]
	for {
		cc.mu.Lock()
		n := len(cc.pending)
		fc := cc.fc
		cc.mu.Unlock()
		if n == 1 {
			fc.Conn().Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Get never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("in-flight Get err = %v, want ErrDisconnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Get hung after connection loss")
	}
}

// TestClosedClientRejectsOps: after Close, operations fail fast with
// net.ErrClosed instead of redialing.
func TestClosedClientRejectsOps(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Space("x").Put(nil, tspace.Tuple{"a"}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Put on closed client = %v, want net.ErrClosed", err)
	}
}

// TestBlockingDeadlineExpiryTerminal: a blocking Get whose deadline has
// passed must fail with a timeout, not burn the op-retry budget redialing
// a dead server. Regression: the retry loop used to treat every register
// failure as transient, so a 50ms-deadline Get against a downed shard
// spent OpRetries full dial-retry cycles (seconds) before giving up — and
// then reported exhausted retries instead of the timeout it was.
func TestBlockingDeadlineExpiryTerminal(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{
		DialRetries: 4,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		OpRetries:   5,
	})
	srv.Shutdown()
	// Wait for the client to notice the dead transport so the Get goes
	// straight to the redial path rather than racing the reader teardown.
	waitUntil := time.Now().Add(2 * time.Second)
	cc := c.conns[0]
	for {
		cc.mu.Lock()
		gone := cc.fc == nil
		cc.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("connection never torn down after shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, _, err := c.Space("jobs").Deadline(50*time.Millisecond).Get(nil, tspace.Template{"never"})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get err = %v, want ErrTimeout", err)
	}
	// One redial cycle may still run to completion (~300ms here); five of
	// them must not.
	if elapsed > time.Second {
		t.Fatalf("Get took %v; deadline expiry kept redialing", elapsed)
	}
}

// TestCancelWithdrawsBlockingGet: firing a client-side token sends a
// CANCEL frame that withdraws the parked server-side waiter; the call
// returns ErrCanceled and the server counts the withdrawal.
func TestCancelWithdrawsBlockingGet(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	tok := tspace.NewCancelToken()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Space("jobs").GetCancel(nil, tspace.Template{"never"}, tok)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Blocked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Get never parked server-side")
		}
		time.Sleep(time.Millisecond)
	}
	tok.Cancel(nil)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("GetCancel err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Get hung")
	}
	if n := srv.Stats().Canceled; n != 1 {
		t.Fatalf("server Canceled = %d, want 1", n)
	}
}

// TestCancelAfterManyStaleCancels: CANCELs whose target already answered
// (one fan-out in six sends one) must leave nothing behind on the
// connection. Regression: the server remembered every such CANCEL in a set
// capped at 1,024 entries in case it had overtaken its target's
// registration, never forgot one, and once the set was full dropped the
// CANCELs that really had — their Gets stayed parked for good.
func TestCancelAfterManyStaleCancels(t *testing.T) {
	srv, addr := startServer(t)
	fc, frames, _ := rawConn(t, addr)
	nc := fc.Conn()
	frame := func(req request) []byte {
		b, err := appendRequest(make([]byte, sio.PrefixLen), req)
		if err != nil {
			t.Fatalf("encode %s: %v", opName(req.op), err)
		}
		binary.BigEndian.PutUint32(b, uint32(len(b)-sio.PrefixLen))
		return b
	}
	var stale []byte
	for id := uint32(1); id <= 2000; id++ {
		stale = append(stale, frame(request{op: opCancel, target: id})...)
	}
	if _, err := nc.Write(stale); err != nil {
		t.Fatalf("write stale cancels: %v", err)
	}
	// Each Get and its CANCEL leave in one write, so the reader decodes the
	// CANCEL right behind its target — before the Get's thread has run.
	const gets = 20
	for i := uint32(0); i < gets; i++ {
		id := 5000 + i
		pair := append(frame(request{op: opGet, id: id, space: "jobs", template: tspace.Template{"never"}}),
			frame(request{op: opCancel, target: id})...)
		if _, err := nc.Write(pair); err != nil {
			t.Fatalf("write get+cancel: %v", err)
		}
	}
	for i := 0; i < gets; i++ {
		select {
		case b := <-frames:
			if r, err := decodeResponse(b); err != nil || r.op != respErr || r.code != codeCanceled {
				t.Fatalf("reply %d: %+v (err %v), want respErr/codeCanceled", i, r, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d canceled Gets never answered (still parked: %d)", gets-i, gets, srv.Stats().Blocked)
		}
	}
	testkit.Eventually(t, 5*time.Second, func() bool { return srv.Stats().Blocked == 0 },
		"a canceled Get stayed parked")
}

// TestCancelBeforeParkStillWithdraws: a token fired before the op's frame
// is even written must short-circuit (or withdraw the op as soon as the
// server has registered it) — never hang.
func TestCancelBeforeParkStillWithdraws(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	tok := tspace.NewCancelToken()
	tok.Cancel(nil)
	_, _, err := c.Space("jobs").GetCancel(nil, tspace.Template{"never"}, tok)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled GetCancel err = %v, want ErrCanceled", err)
	}
}

// TestRouteCheckRedirects: a server armed with a routing policy answers
// misrouted ops with a typed redirect naming the owning shard, counts it,
// and leaves correctly-routed ops alone.
func TestRouteCheckRedirects(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	srv := NewServer(vm, ServerConfig{
		RouteCheck: func(space string, tup tspace.Tuple, tpl tspace.Template) error {
			if space == "keyed" {
				return &RedirectError{Op: "put", Space: space, Node: "n2", Addr: "10.0.0.2:7000"}
			}
			return nil
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)
	c := dialTest(t, ln.Addr().String(), DialConfig{})

	if err := c.Space("open").Put(nil, tspace.Tuple{"a"}); err != nil {
		t.Fatalf("Put on accepted space: %v", err)
	}
	err = c.Space("keyed").Put(nil, tspace.Tuple{"a", 1})
	if !errors.Is(err, ErrRedirect) {
		t.Fatalf("misrouted Put err = %v, want ErrRedirect", err)
	}
	var re *RedirectError
	if !errors.As(err, &re) || re.Node != "n2" || re.Addr != "10.0.0.2:7000" {
		t.Fatalf("redirect = %+v, want node n2 at 10.0.0.2:7000", re)
	}
	if n := srv.Stats().Redirects; n != 1 {
		t.Fatalf("Redirects = %d, want 1", n)
	}
	if err := c.Ping(nil); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

// TestBackoffSchedule pins the exponential-with-cap shape.
func TestBackoffSchedule(t *testing.T) {
	cfg := DialConfig{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 65 * time.Millisecond}.withDefaults()
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		65 * time.Millisecond, 65 * time.Millisecond,
	}
	for i, w := range want {
		if got := cfg.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}
