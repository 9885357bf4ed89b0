package remote

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// TestClientServerSpanParentage is the wire-propagation acceptance: a
// traced STING thread's remote ops open client spans, the TRACECTX
// extension carries (trace, span) to the server, and the server-side
// dispatch opens a server span parented on the client span — one trace ID
// end to end, no leaked open spans.
func TestClientServerSpanParentage(t *testing.T) {
	buf := obs.NewSpanRing(1024)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	base := obs.OpenSpans()

	vm := testkit.VM(t, 2, 2)
	srv := NewServer(vm, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(srv.Shutdown)

	root := obs.StartSpan(obs.SpanContext{}, "remote-test-root", obs.SpanInternal)
	th := vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		c, err := Dial(ctx, ln.Addr().String(), DialConfig{})
		if err != nil {
			return nil, err
		}
		defer c.Close() //nolint:errcheck
		sp := c.Space("jobs")
		if err := sp.Put(ctx, tspace.Tuple{"job", int64(1)}); err != nil {
			return nil, err
		}
		if _, _, err := sp.Get(ctx, tspace.Template{"job", tspace.F("n")}); err != nil {
			return nil, err
		}
		return nil, nil
	}, core.WithName("traced-client"), core.WithSpanContext(root.Context()))
	if _, err := core.JoinThread(th); err != nil {
		t.Fatalf("client thread: %v", err)
	}
	root.End()
	srv.Shutdown() // waits for in-flight requests, so server spans are ended

	if got := obs.OpenSpans(); got != base {
		t.Fatalf("OpenSpans = %d, want %d (leaked span)", got, base)
	}
	spans := buf.Drain()
	rc := root.Context()
	clients := map[obs.SpanID]*obs.SpanData{}
	var servers []*obs.SpanData
	for _, s := range spans {
		if s.Trace != rc.Trace {
			t.Fatalf("span %q on trace %v, want %v", s.Name, s.Trace, rc.Trace)
		}
		switch s.Kind {
		case obs.SpanClient:
			clients[s.Span] = s
		case obs.SpanServer:
			servers = append(servers, s)
		}
	}
	if len(clients) < 2 { // put + get at minimum (hello is untraced)
		t.Fatalf("client spans = %d, want ≥2", len(clients))
	}
	if len(servers) < 2 {
		t.Fatalf("server spans = %d, want ≥2", len(servers))
	}
	sawOps := map[string]bool{}
	for _, s := range servers {
		parent, ok := clients[s.Parent]
		if !ok {
			t.Fatalf("server span %q parent %v matches no client span", s.Name, s.Parent)
		}
		sawOps[s.Name] = true
		if want := "client/" + s.Name[len("server/"):]; parent.Name != want {
			t.Fatalf("server span %q parented on %q, want %q", s.Name, parent.Name, want)
		}
	}
	if !sawOps["server/put"] || !sawOps["server/get"] {
		t.Fatalf("server ops traced = %v, want put and get", sawOps)
	}
}

// TestUntracedClientSendsNoSpans: a nil-context client must not grow
// spans on the server (the hasTrace gate), even with a sink installed.
func TestUntracedClientSendsNoSpans(t *testing.T) {
	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)

	srv, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("jobs")
	if err := sp.Put(nil, tspace.Tuple{"job", int64(1)}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := sp.TryRd(nil, tspace.Template{"job", tspace.F("n")}); err != nil {
		t.Fatalf("TryRd: %v", err)
	}
	srv.Shutdown()
	if got := buf.Drain(); len(got) != 0 {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name
		}
		t.Fatalf("untraced ops recorded spans: %v", names)
	}
}

// TestReaderServedPutSpan: a traced Put is answered on the connection's
// reader, with no request thread, and still closes exactly one server/put
// span parented on the client's span.
func TestReaderServedPutSpan(t *testing.T) {
	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	base := obs.OpenSpans()

	srv, addr := startServer(t)
	root := obs.StartSpan(obs.SpanContext{}, "remote-test-root", obs.SpanInternal)
	var before, after uint64
	th := srv.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		c, err := Dial(ctx, addr, DialConfig{})
		if err != nil {
			return nil, err
		}
		defer c.Close() //nolint:errcheck
		before = threadsCreated(srv)
		err = c.Space("jobs").Put(ctx, tspace.Tuple{"job", int64(1)})
		after = threadsCreated(srv)
		return nil, err
	}, core.WithName("traced-client"), core.WithSpanContext(root.Context()))
	if _, err := core.JoinThread(th); err != nil {
		t.Fatalf("client thread: %v", err)
	}
	root.End()
	srv.Shutdown()

	if after != before {
		t.Fatalf("traced Put forked %d server threads, want 0", after-before)
	}
	if got := obs.OpenSpans(); got != base {
		t.Fatalf("OpenSpans = %d, want %d (leaked span)", got, base)
	}
	var client, server []*obs.SpanData
	for _, s := range buf.Drain() {
		switch s.Kind {
		case obs.SpanClient:
			client = append(client, s)
		case obs.SpanServer:
			server = append(server, s)
		}
	}
	if len(client) != 1 || len(server) != 1 {
		t.Fatalf("spans: %d client, %d server, want 1 each", len(client), len(server))
	}
	if s := server[0]; s.Name != "server/put" || s.Parent != client[0].Span || s.Trace != client[0].Trace {
		t.Fatalf("server span %q (parent %v), want server/put under client span %v", s.Name, s.Parent, client[0].Span)
	}
}
