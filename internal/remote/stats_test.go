package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sio"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// sample returns the first sample of the named family carrying every
// label in want.
func sample(ms []obs.Metric, name string, want ...obs.Label) (obs.Metric, bool) {
	for _, m := range ms {
		if m.Name != name {
			continue
		}
		ok := true
		for _, l := range want {
			ok = ok && slices.Contains(m.Labels, l)
		}
		if ok {
			return m, true
		}
	}
	return obs.Metric{}, false
}

// TestStatsWireRoundTripLatency: a live server's latency histograms
// survive the STATS reply bucket for bucket, so a reader of the wire gets
// the quantiles Server.Stats digests in process.
func TestStatsWireRoundTripLatency(t *testing.T) {
	srv, addr := startServer(t)
	sp := dialTest(t, addr, DialConfig{}).Space("jobs")
	for i := 0; i < 4; i++ {
		if err := sp.Put(nil, tspace.Tuple{"job", i}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// The server records an op's latency after it has answered; wait until
	// all four puts show.
	testkit.Eventually(t, 5*time.Second, func() bool {
		return srv.Stats().OpLatency["put"].Count == 4
	}, "latency of four puts never recorded")
	var text bytes.Buffer
	if err := srv.WriteStats(&text); err != nil {
		t.Fatal(err)
	}
	r, err := decodeResponse(appendStatsResp(nil, 3, text.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ms, err := obs.ParsePrometheus(strings.NewReader(r.message))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, ok := sample(ms, "sting_remote_op_latency_seconds", obs.L("op", "put"))
	if !ok || m.Hist == nil {
		t.Fatalf("put latency histogram missing from %d samples", len(ms))
	}
	want := srv.Stats().OpLatency["put"]
	if m.Hist.Count != want.Count || m.Hist.Quantile(0.5) != want.P50 || m.Hist.Quantile(0.99) != want.P99 {
		t.Fatalf("wire histogram count %d p50 %v p99 %v, in process %+v",
			m.Hist.Count, m.Hist.Quantile(0.5), m.Hist.Quantile(0.99), want)
	}
}

// TestServerRecordsOpLatency: a live server measures its ops and ships the
// histograms through the STATS op to a fabric client.
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
	// the STATS op can overtake the histogram of a reply already received:
	// ask until all four ops show.
	var put, tryget *obs.HistogramSnapshot
	testkit.Eventually(t, 5*time.Second, func() bool {
		ms, err := c.Stats(nil)
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		p, _ := sample(ms, "sting_remote_op_latency_seconds", obs.L("op", "put"))
		g, _ := sample(ms, "sting_remote_op_latency_seconds", obs.L("op", "tryget"))
		put, tryget = p.Hist, g.Hist
		return put != nil && put.Count >= 3 && tryget != nil && tryget.Count >= 1
	}, "latency of three puts and a tryget never recorded")
	if p50 := put.Quantile(0.5); p50 <= 0 || put.Quantile(0.99) < p50 {
		t.Fatalf("put quantiles implausible: %+v", put)
	}
}

// TestStatsOmitsUnservedOps: a fresh server's stats text carries no
// latency histogram for an op it never served, and carries one for an op
// it did serve.
func TestStatsOmitsUnservedOps(t *testing.T) {
	srv, addr := startServer(t)
	text := func() string {
		var b bytes.Buffer
		if err := srv.WriteStats(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const putBucket = `sting_remote_op_latency_seconds_bucket{op="put",`
	if fresh := text(); strings.Contains(fresh, "sting_remote_op_latency_seconds_bucket") {
		t.Fatalf("fresh server reports latency buckets:\n%s", fresh)
	}
	if err := dialTest(t, addr, DialConfig{}).Space("jobs").Put(nil, tspace.Tuple{"job"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	testkit.Eventually(t, 5*time.Second, func() bool {
		return strings.Contains(text(), putBucket)
	}, "no put latency buckets after a served put")
	if served := text(); strings.Contains(served, `sting_remote_op_latency_seconds_bucket{op="get",`) {
		t.Fatalf("get latency buckets reported although no get was served:\n%s", served)
	}
}

// TestStatsReplyOverFrameLimit: a STATS reply too large for one frame is
// answered with an error reply; the connection stays up and serves on.
func TestStatsReplyOverFrameLimit(t *testing.T) {
	srv, addr := startServer(t)
	// Each space adds five samples of ~150 bytes: 2,000 spaces render
	// about 1.5 MB, past the 1 MiB frame limit.
	for i := 0; i < 2000; i++ {
		srv.Registry().OpenDefault(fmt.Sprintf("space-%04d-%s", i, strings.Repeat("x", 48)))
	}
	var text bytes.Buffer
	if err := srv.WriteStats(&text); err != nil || text.Len() <= sio.MaxFrame {
		t.Fatalf("stats text is %d bytes (%v), want more than the %d-byte frame limit", text.Len(), err, sio.MaxFrame)
	}
	c := dialTest(t, addr, DialConfig{})
	_, err := c.Stats(nil)
	if err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("Stats = %v, want the frame-limit error reply", err)
	}
	if err := c.Space("jobs").Put(nil, tspace.Tuple{"after"}); err != nil {
		t.Fatalf("Put after the refused STATS: %v", err)
	}
	if s := srv.Stats(); s.Conns != 1 || s.ConnsActive != 1 || s.ProtoErrors != 0 {
		t.Fatalf("conns %d (active %d), protocol errors %d: want the one connection kept",
			s.Conns, s.ConnsActive, s.ProtoErrors)
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
	parsed, err := obs.ParsePrometheus(&text)
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
