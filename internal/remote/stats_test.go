package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// TestStatsCountersRoundTripLatency: the latency digests survive the flat
// counters map that the STATS wire op ships (satellite: extend the STATS
// op with per-op quantiles without breaking the wire format).
func TestStatsCountersRoundTripLatency(t *testing.T) {
	in := StatsSnapshot{
		Ops: map[string]uint64{"put": 7},
		OpLatency: map[string]LatencySummary{
			"put": {Count: 7, P50: 0.000130, P95: 0.000850, P99: 0.002100},
			"get": {Count: 2, P50: 1.5, P95: 2.25, P99: 2.25},
		},
	}
	var out StatsSnapshot
	out.setCounters(in.counters())
	for op, want := range in.OpLatency {
		got, ok := out.OpLatency[op]
		if !ok {
			t.Fatalf("op %q lost in roundtrip", op)
		}
		if got.Count != want.Count {
			t.Errorf("%s count = %d, want %d", op, got.Count, want.Count)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{{"p50", got.P50, want.P50}, {"p95", got.P95, want.P95}, {"p99", got.P99, want.P99}} {
			// Quantiles travel as integer nanoseconds; allow that rounding.
			if math.Abs(q.got-q.want) > 1e-9 {
				t.Errorf("%s %s = %v, want %v", op, q.name, q.got, q.want)
			}
		}
	}
	if out.Ops["put"] != 7 {
		t.Errorf("op counters corrupted: %v", out.Ops)
	}
}

// TestStatsWireRoundTripLatency: the encoded STATS response decodes to the
// same digests end to end through the frame codec.
func TestStatsWireRoundTripLatency(t *testing.T) {
	snap := StatsSnapshot{
		Ops:         map[string]uint64{"get": 4},
		SpaceDepths: map[string]int{"jobs": 2},
		OpLatency: map[string]LatencySummary{
			"get": {Count: 4, P50: 0.000040, P95: 0.000200, P99: 0.000200},
		},
	}
	r, err := decodeResponse(appendStatsResp(nil, 3, snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ls, ok := r.stats.OpLatency["get"]
	if !ok {
		t.Fatalf("latency digest missing: %+v", r.stats)
	}
	if ls.Count != 4 || math.Abs(ls.P50-0.000040) > 1e-9 || math.Abs(ls.P99-0.000200) > 1e-9 {
		t.Fatalf("digest %+v", ls)
	}
}

// TestServerRecordsOpLatency: a live server measures its ops and ships the
// digests through the STATS op to a fabric client.
func TestServerRecordsOpLatency(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("jobs")
	for i := 0; i < 3; i++ {
		if err := sp.Put(nil, tspace.Tuple{"job", i}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, _, err := sp.TryGet(nil, tspace.Template{"job", 0}); err != nil {
		t.Fatalf("TryGet: %v", err)
	}
	// The server records an op's latency after it has answered, so
	// the STATS op can overtake the digest of a reply already received: ask
	// until all four ops show.
	var snap StatsSnapshot
	testkit.Eventually(t, 5*time.Second, func() bool {
		var err error
		if snap, err = c.Stats(nil); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return snap.OpLatency["put"].Count >= 3 && snap.OpLatency["tryget"].Count >= 1
	}, "latency digests of three puts and a tryget never recorded")
	put, ok := snap.OpLatency["put"]
	if !ok || put.Count < 3 {
		t.Fatalf("put latency digest = %+v (snapshot %+v)", put, snap.OpLatency)
	}
	if put.P50 <= 0 || put.P99 < put.P50 {
		t.Fatalf("put quantiles implausible: %+v", put)
	}
	if tg, ok := snap.OpLatency["tryget"]; !ok || tg.Count < 1 {
		t.Fatalf("tryget latency digest = %+v", tg)
	}
	if snap.String() == "" || len(snap.String()) < 10 {
		t.Fatal("String() render empty")
	}
}

// TestClientMetricsRecorded: the client-side collector sees dial latency
// and per-op round trips after real traffic.
func TestClientMetricsRecorded(t *testing.T) {
	_, addr := startServer(t)
	c := dialTest(t, addr, DialConfig{})
	sp := c.Space("jobs")
	if err := sp.Put(nil, tspace.Tuple{"x"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if c.metrics.dialLatency.Count() != 1 {
		t.Fatalf("dial latency count = %d, want 1", c.metrics.dialLatency.Count())
	}
	if n := c.metrics.opLatency[opPut-1].Count(); n != 1 {
		t.Fatalf("put latency count = %d, want 1", n)
	}
	ms := c.Collector().Collect()
	var sawDial, sawOp bool
	for _, m := range ms {
		switch m.Name {
		case "sting_remote_client_dial_seconds":
			sawDial = true
		case "sting_remote_client_op_latency_seconds":
			sawOp = true
		}
	}
	if !sawDial || !sawOp {
		t.Fatalf("collector families missing (dial=%v op=%v) in %d metrics", sawDial, sawOp, len(ms))
	}
}

// TestDisableMetricsStillCounts: with histograms off the plain counters
// keep working and the STATS digest map is simply empty.
func TestDisableMetricsStillCounts(t *testing.T) {
	var s Stats
	s.serve(opPut)
	s.observe(opPut, time.Millisecond) // nil histogram: must not panic
	snap := s.Snapshot(nil)
	if snap.Ops["put"] != 1 {
		t.Fatalf("ops = %v", snap.Ops)
	}
	if len(snap.OpLatency) != 0 {
		t.Fatalf("latency digests present despite disabled metrics: %v", snap.OpLatency)
	}
}

// TestCountHistogramsResolveBatch: BatchSize and PipelineDepth sample
// counts, not seconds. One raw 234-Put BATCH frame must land in a finite
// bucket — under the latency bounds, which end at 10, it fell into +Inf and
// every quantile clamped to 10 — and the /metrics exposition of both
// histograms must still parse back bucket for bucket.
func TestCountHistogramsResolveBatch(t *testing.T) {
	srv, addr := startServer(t)
	const n = 234
	req := request{op: opBatch, id: 7}
	for i := 0; i < n; i++ {
		req.batch = append(req.batch, batchEntry{space: "jobs", tuple: tspace.Tuple{"job", int64(i)}})
	}
	payload, err := appendRequest(nil, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read response length: %v", err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	if r, err := decodeResponse(body); err != nil || r.op != respBatch || len(r.batch) != n {
		t.Fatalf("response = %+v, %v; want %d batch statuses", r, err, n)
	}

	snap := srv.stats.BatchSize.Snapshot()
	if snap.Count != 1 || snap.Counts[len(snap.Bounds)] != 0 {
		t.Fatalf("batch of %d: counts %v over bounds %v, want one sample in a finite bucket", n, snap.Counts, snap.Bounds)
	}
	if p50 := snap.Quantile(0.5); p50 <= 128 || p50 > 256 {
		t.Errorf("BatchSize p50 = %v, want within (128, 256]", p50)
	}

	var text bytes.Buffer
	if err := obs.WritePrometheus(&text, ServerCollector{Server: srv}.Collect()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	parsed, err := tsdb.ParsePrometheus(&text)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	for name, h := range map[string]*obs.Histogram{
		"sting_remote_batch_size":     srv.stats.BatchSize,
		"sting_remote_pipeline_depth": srv.stats.PipelineDepth,
	} {
		want := h.Snapshot()
		var got *obs.HistogramSnapshot
		for _, m := range parsed {
			if m.Name == name {
				got = m.Hist
			}
		}
		if got == nil {
			t.Errorf("%s missing from the parsed exposition", name)
			continue
		}
		if got.Count != want.Count || got.Sum != want.Sum ||
			len(got.Bounds) != len(want.Bounds) || got.Bounds[len(got.Bounds)-1] != 4096 {
			t.Errorf("%s parsed as count %d sum %v bounds %v, want count %d sum %v bounds %v",
				name, got.Count, got.Sum, got.Bounds, want.Count, want.Sum, want.Bounds)
			continue
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Errorf("%s bucket %d = %d, want %d", name, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}
