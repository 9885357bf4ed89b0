package remote

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sio"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// pingPongServer boots a fabric server on loopback with one server-side
// STING echo thread: it takes {"ping", n} from the "pingpong" space and puts
// {"pong", n} back until n is negative.
func pingPongServer(b *testing.B, cfg ServerConfig) (srv *Server, addr string, echo *core.Thread) {
	vm := testkit.VM(b, 2, 2)
	srv = NewServer(vm, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	b.Cleanup(srv.Shutdown)

	ts := srv.Registry().OpenDefault("pingpong")
	echo = vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		for {
			_, bind, err := ts.Get(ctx, tspace.Template{"ping", tspace.F("n")})
			if err != nil {
				return nil, err
			}
			if bind["n"].(int64) < 0 {
				return nil, nil
			}
			if err := ts.Put(ctx, tspace.Tuple{"pong", bind["n"]}); err != nil {
				return nil, err
			}
		}
	}, core.WithName("echo"))
	return srv, ln.Addr().String(), echo
}

// roundTrips times b.N fabric round trips over c — a remote Put answered by
// the echo thread, collected with a remote blocking Get — then retires the
// echo thread. ctx is the calling STING thread, or nil from a goroutine.
func roundTrips(b *testing.B, ctx *core.Context, c *Client) error {
	sp := c.Space("pingpong")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(i)
		if err := sp.Put(ctx, tspace.Tuple{"ping", n}); err != nil {
			return err
		}
		if _, _, err := sp.Get(ctx, tspace.Template{"pong", n}); err != nil {
			return err
		}
	}
	b.StopTimer()
	return sp.Put(ctx, tspace.Tuple{"ping", int64(-1)})
}

// benchPingPong measures one fabric round trip from outside the substrate:
// the client is the benchmark's own goroutine. Compare with the in-process
// tuple ops of the Fig. 6 table (BenchmarkFig6TupleSpace) to see the wire's
// cost.
func benchPingPong(b *testing.B, cfg ServerConfig) {
	_, addr, echo := pingPongServer(b, cfg)
	if err := roundTrips(b, nil, dialTest(b, addr, DialConfig{})); err != nil {
		b.Fatal(err)
	}
	if _, err := core.JoinThread(echo); err != nil {
		b.Fatalf("echo: %v", err)
	}
}

// BenchmarkRemoteTuplePingPong runs the ping-pong with the per-op latency
// histograms armed (the default); its NoObs twin below is the ablation
// baseline for the metric-collection overhead entry in EXPERIMENTS.md.
func BenchmarkRemoteTuplePingPong(b *testing.B) {
	benchPingPong(b, ServerConfig{})
}

// BenchmarkRemoteTuplePingPongNoObs is the same round trip with metric
// recording disabled server-side.
func BenchmarkRemoteTuplePingPongNoObs(b *testing.B) {
	benchPingPong(b, ServerConfig{DisableMetrics: true})
}

// The causal-tracing ablation of EXPERIMENTS.md: the client is a STING
// thread (only a thread carries a span context at all). Off, it runs
// untraced; On, it runs under a root span with a ring sink installed, so
// every round trip opens client spans whose context rides the wire and
// re-opens as server spans. Span creation plus the TRACECTX extension is the
// only difference between the two rows; profile with -cpuprofile and
// -memprofile to see that the extra time is allocation and GC, not the span
// code itself.
func benchSpanPingPong(b *testing.B, traced bool) {
	srv, addr, echo := pingPongServer(b, ServerConfig{})
	opts := []core.ThreadOption{core.WithName("bench-client")}
	if traced {
		ring := obs.NewSpanRing(1 << 16)
		obs.SetSpanSink(ring.Record)
		defer obs.SetSpanSink(nil)
		defer func() {
			// client/put + client/get + server/put + server/get at the least.
			if got := ring.Stats().Recorded; got < 4*uint64(b.N) {
				b.Errorf("%d spans recorded over %d traced round trips, want at least 4 each", got, b.N)
			}
		}()
		root := obs.StartSpan(obs.SpanContext{}, "bench/remote-pingpong", obs.SpanInternal)
		defer root.End()
		opts = append(opts, core.WithSpanContext(root.Context()))
	}
	client := srv.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		c, err := Dial(ctx, addr, DialConfig{})
		if err != nil {
			return nil, err
		}
		defer c.Close() //nolint:errcheck
		return nil, roundTrips(b, ctx, c)
	}, opts...)
	for _, t := range []*core.Thread{client, echo} {
		if _, err := core.JoinThread(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpanPingPongOff(b *testing.B) { benchSpanPingPong(b, false) }
func BenchmarkSpanPingPongOn(b *testing.B)  { benchSpanPingPong(b, true) }

// Codec hot-path benchmarks, run with -benchmem: the zero-alloc-codec
// acceptance gate is 0 allocs/op on encode (pooled buffer, in-place
// length prefix) and ≤2 allocs/op on decode (the tuple slice plus its one
// string element; the space name is interned, immediates under 256 box
// free).

// BenchmarkCodecEncodePut encodes a PUT frame into a pooled buffer — the
// exact sequence the client's write path runs per op.
func BenchmarkCodecEncodePut(b *testing.B) {
	req := request{op: opPut, id: 7, space: "jobs", tuple: tspace.Tuple{"job", int64(42), true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := sio.GetBuf()[:sio.PrefixLen]
		frame, err := appendRequest(buf, req)
		if err != nil {
			b.Fatal(err)
		}
		sio.PutBuf(frame)
	}
}

// BenchmarkCodecDecodePut decodes the same PUT frame — the sequence the
// server's reader runs per arriving op.
func BenchmarkCodecDecodePut(b *testing.B) {
	frame, err := appendRequest(nil, request{op: opPut, id: 7, space: "jobs",
		tuple: tspace.Tuple{"job", int64(42), true}})
	if err != nil {
		b.Fatal(err)
	}
	internName([]byte("jobs")) // steady state: the space name is known
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRequest(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeTupleResp decodes a matched-tuple response with no
// bindings — the client-side hot path for ground-template Get/Rd.
func BenchmarkCodecDecodeTupleResp(b *testing.B) {
	frame, err := appendTupleResp(nil, 7, tspace.Tuple{"job", int64(42), true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResponse(frame); err != nil {
			b.Fatal(err)
		}
	}
}
