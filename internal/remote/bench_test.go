package remote

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/sio"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// benchPingPong measures one fabric round trip: a remote Put answered by a
// server-side STING echo thread, collected with a remote blocking Get.
// Compare with the in-process tuple ops in internal/bench's Fig. 6 table
// to see the wire's cost.
func benchPingPong(b *testing.B, cfg ServerConfig) {
	vm := testkit.VM(b, 2, 2)
	srv := NewServer(vm, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	b.Cleanup(srv.Shutdown)
	addr := ln.Addr().String()

	ts := srv.Registry().OpenDefault("pingpong")
	echo := srv.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
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

	c := dialTest(b, addr, DialConfig{})
	sp := c.Space("pingpong")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(i)
		if err := sp.Put(nil, tspace.Tuple{"ping", n}); err != nil {
			b.Fatalf("Put: %v", err)
		}
		if _, _, err := sp.Get(nil, tspace.Template{"pong", n}); err != nil {
			b.Fatalf("Get: %v", err)
		}
	}
	b.StopTimer()
	if err := sp.Put(nil, tspace.Tuple{"ping", int64(-1)}); err != nil {
		b.Fatalf("sentinel Put: %v", err)
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
