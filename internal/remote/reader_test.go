package remote

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// threadsCreated reads the server VM's thread-creation counter.
func threadsCreated(srv *Server) uint64 { return srv.vm.Stats().ThreadsCreated }

// TestNonParkingOpsForkNoThread: Put, a hitting Get, TryRd, LEN and STATS
// are answered on the connection's reader and fork no server thread; a Get
// that misses forks exactly one.
func TestNonParkingOpsForkNoThread(t *testing.T) {
	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("jobs")
	const n = 50
	before := threadsCreated(srv)
	for i := 0; i < n; i++ {
		if err := sp.Put(nil, tspace.Tuple{"job", int64(i)}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, _, err := sp.Get(nil, tspace.Template{"job", int64(i)}); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{"job", tspace.F("n")}); err != tspace.ErrNoMatch {
		t.Fatalf("TryRd on an emptied space: %v, want ErrNoMatch", err)
	}
	if got := sp.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if _, err := c.Stats(nil); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := threadsCreated(srv) - before; got != 0 {
		t.Fatalf("non-parking ops forked %d server threads, want 0", got)
	}

	got := make(chan error, 1)
	go func() {
		_, _, err := sp.Get(nil, tspace.Template{"late", tspace.F("x")})
		got <- err
	}()
	testkit.Eventually(t, 5*time.Second, func() bool { return srv.Stats().Blocked == 1 }, "Get never parked")
	if err := sp.Put(nil, tspace.Tuple{"late", int64(1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("parked Get: %v", err)
	}
	if got := threadsCreated(srv) - before; got != 1 {
		t.Fatalf("a missing Get forked %d server threads, want 1", got)
	}
}

// TestNonParkingAnswersFollowFrameOrder: on one raw connection, pipelined
// non-parking ops are answered in frame order while a parked Get between
// them waits, and the Get is answered once a later Put supplies its tuple.
func TestNonParkingAnswersFollowFrameOrder(t *testing.T) {
	_, addr := startServer(t)
	fc, frames, _ := rawConn(t, addr)
	send := func(req request) {
		t.Helper()
		req.space = "order"
		frame, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode op %s: %v", opName(req.op), err)
		}
		if err := fc.WriteFrame(frame); err != nil {
			t.Fatalf("write op %s: %v", opName(req.op), err)
		}
	}
	recv := func() response {
		t.Helper()
		select {
		case frame := <-frames:
			r, err := decodeResponse(frame)
			if err != nil {
				t.Fatalf("undecodable reply: %v", err)
			}
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
		}
		return response{}
	}
	send(request{op: opPut, id: 1, tuple: tspace.Tuple{"a", int64(1)}})
	send(request{op: opGet, id: 2, template: tspace.Template{"g", tspace.F("x")}})
	send(request{op: opPut, id: 3, tuple: tspace.Tuple{"b", int64(2)}})
	send(request{op: opTryGet, id: 4, template: tspace.Template{"a", tspace.F("x")}})
	send(request{op: opLen, id: 5})
	for _, want := range []struct {
		id uint32
		op byte
	}{{1, respOK}, {3, respOK}, {4, respTuple}, {5, respLen}} {
		if r := recv(); r.id != want.id || r.op != want.op {
			t.Fatalf("reply id=%d op=%d, want id=%d op=%d", r.id, r.op, want.id, want.op)
		}
	}
	send(request{op: opPut, id: 6, tuple: tspace.Tuple{"g", int64(3)}})
	seen := map[uint32]response{}
	for len(seen) < 2 {
		r := recv()
		seen[r.id] = r
	}
	if r := seen[6]; r.op != respOK {
		t.Fatalf("Put 6 reply op=%d, want respOK", r.op)
	}
	if r := seen[2]; r.op != respTuple || r.bind["x"] != int64(3) {
		t.Fatalf("parked Get reply op=%d bind=%v, want the later Put's tuple", r.op, r.bind)
	}
}

// TestActiveEntriesOverTheWire: a tuple deposited by a server-local Spawn
// holds a thread, which only a thread can demand. A remote TryRd, Rd and
// Get each fall back to one request thread and receive its value.
func TestActiveEntriesOverTheWire(t *testing.T) {
	srv, addr := startServer(t)
	testkit.RunIn(t, srv.vm, func(ctx *core.Context) error {
		_, err := srv.Registry().OpenDefault("act").Spawn(ctx,
			func(*core.Context) ([]core.Value, error) { return testkit.One(int64(7)), nil })
		return err
	})
	sp := dialTest(t, addr, DialConfig{}).Space("act")
	tpl := tspace.Template{tspace.F("v")}
	for _, op := range []struct {
		name string
		call func() (tspace.Bindings, error)
	}{
		{"TryRd", func() (tspace.Bindings, error) { _, b, err := sp.TryRd(nil, tpl); return b, err }},
		{"Rd", func() (tspace.Bindings, error) { _, b, err := sp.Rd(nil, tpl); return b, err }},
		{"Get", func() (tspace.Bindings, error) { _, b, err := sp.Get(nil, tpl); return b, err }},
	} {
		before := threadsCreated(srv)
		b, err := op.call()
		if err != nil || b["v"] != int64(7) {
			t.Fatalf("%s: %v %v, want v=7", op.name, b, err)
		}
		if got := threadsCreated(srv) - before; got != 1 {
			t.Fatalf("%s forked %d server threads, want 1 (the fallback)", op.name, got)
		}
	}
	if got := sp.Len(); got != 0 {
		t.Fatalf("Len after Get = %d, want 0", got)
	}
}
