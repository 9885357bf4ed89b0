package main

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

func t0() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

// smallStore builds a store whose rings hold n samples, so a test can
// wrap one.
func smallStore(n int) *store {
	st := newStore()
	st.cap = n
	return st
}

func counterAt(v float64) []obs.Metric {
	return []obs.Metric{obs.Counter("c_total", "", v)}
}

func TestRingWraparoundNeverDoubleCounts(t *testing.T) {
	st := smallStore(4)
	base := t0()
	// Feed 10 samples through a 4-slot ring: a strictly increasing counter,
	// +1 per second. After wraparound the live window is the last 4 samples.
	for i := 0; i < 10; i++ {
		st.ingest(base.Add(time.Duration(i)*time.Second), counterAt(float64(i)))
	}
	s := st.lookup("c_total", nil)
	if s == nil {
		t.Fatal("series not retained")
	}
	if s.pts.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", s.pts.Len())
	}
	// Oldest live sample must be i=6 (values 6,7,8,9): nothing overwritten
	// survives, nothing live is duplicated.
	for i := 0; i < 4; i++ {
		if got, want := s.pts.At(i).v, float64(6+i); got != want {
			t.Fatalf("at(%d).V = %g, want %g", i, got, want)
		}
	}
	// A wide window sees exactly the 3 deltas among 4 live samples: rate 1/s.
	rate, ok := st.rate("c_total", nil, time.Hour)
	if !ok || rate != 1 {
		t.Fatalf("Rate = %g, %v; want 1, true", rate, ok)
	}
}

func TestRateWindowedAndResetSafe(t *testing.T) {
	st := newStore()
	base := t0()
	// 0..5 increments of 10/s, then a counter reset (process restart), then
	// 100/s. The reset delta is negative and must be dropped, not summed.
	vals := []float64{0, 10, 20, 30, 40, 50, 3, 103, 203}
	for i, v := range vals {
		st.ingest(base.Add(time.Duration(i)*time.Second), counterAt(v))
	}
	rate, ok := st.rate("c_total", nil, time.Hour)
	if !ok {
		t.Fatal("Rate not ok")
	}
	// Positive deltas: 10*5 + 100*2 = 250 over 8 seconds.
	if want := 250.0 / 8; rate != want {
		t.Fatalf("reset-safe rate = %g, want %g", rate, want)
	}
	// A 2s trailing window sees only the last two deltas (100 each over 2s).
	rate, ok = st.rate("c_total", nil, 2*time.Second)
	if !ok || rate != 100 {
		t.Fatalf("windowed rate = %g, %v; want 100, true", rate, ok)
	}
	// One sample is not a rate.
	st2 := smallStore(4)
	st2.ingest(base, counterAt(1))
	if _, ok := st2.rate("c_total", nil, time.Hour); ok {
		t.Fatal("Rate with one sample should not be ok")
	}
}

func TestGaugeStats(t *testing.T) {
	st := newStore()
	base := t0()
	if _, ok := st.gaugeStats("g", nil); ok {
		t.Fatal("GaugeStats of an unknown series should not be ok")
	}
	for i, v := range []float64{5, 1, 9, 3} {
		st.ingest(base.Add(time.Duration(i)*time.Second), []obs.Metric{obs.Gauge("g", "", v)})
	}
	if last, ok := st.gaugeStats("g", nil); !ok || last != 3 {
		t.Fatalf("GaugeStats = %g, %v; want the newest sample 3, true", last, ok)
	}
}

func histMetric(h *obs.Histogram) []obs.Metric {
	return []obs.Metric{obs.HistogramSample("h_seconds", "", h)}
}

func TestWindowHistogram(t *testing.T) {
	st := newStore()
	base := t0()
	h := obs.NewHistogram(obs.LatencyBuckets...)
	h.Observe(0.001)
	h.Observe(0.002)
	st.ingest(base, histMetric(h))
	h.Observe(0.5)
	st.ingest(base.Add(time.Second), histMetric(h))

	// Window covering only the newest delta: exactly the 0.5s observation.
	snap, ok := st.windowHistogram("h_seconds", nil, time.Second)
	if !ok {
		t.Fatal("WindowHistogram not ok")
	}
	if snap.Count != 1 {
		t.Fatalf("windowed Count = %d, want 1 (just the delta)", snap.Count)
	}
	if q := snap.Quantile(0.5); q < 0.1 {
		t.Fatalf("windowed p50 = %g, want ≥ 0.1 (the 0.5s observation)", q)
	}
	// Window wider than retention: falls back to the full since-boot
	// snapshot — observations from before the first sample must not vanish.
	snap, ok = st.windowHistogram("h_seconds", nil, time.Hour)
	if !ok || snap.Count != 3 {
		t.Fatalf("over-retention window Count = %d, %v; want 3, true", snap.Count, ok)
	}
}

func TestSubtractHistogramClampsResets(t *testing.T) {
	newer := &obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{2, 0}, Count: 2, Sum: 1}
	older := &obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{5, 1}, Count: 6, Sum: 9}
	d := subtractHistogram(newer, older)
	if d.Count != 0 || d.Sum != 0 {
		t.Fatalf("reset subtraction = count %d sum %g, want 0 0 (clamped)", d.Count, d.Sum)
	}
	// Mismatched bounds: honest fallback is a clone of newer.
	other := &obs.HistogramSnapshot{Bounds: []float64{2}, Counts: []uint64{1, 0}, Count: 1}
	d = subtractHistogram(newer, other)
	if d.Count != newer.Count {
		t.Fatalf("mismatched-bounds subtraction Count = %d, want %d", d.Count, newer.Count)
	}
}

// TestMergedQuantileBoundedByShards is the rollup's correctness property:
// for identically bounded histograms the merged quantile is the quantile
// of the union of observations, so for any q it must lie within
// [min, max] of the per-shard quantiles (up to bucket resolution, which
// is exact here because quantiles interpolate within shared buckets).
func TestMergedQuantileBoundedByShards(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nShards := 2 + rng.Intn(4)
		shards := make([]*obs.HistogramSnapshot, nShards)
		for i := range shards {
			h := obs.NewHistogram(obs.LatencyBuckets...)
			for j := 0; j < 20+rng.Intn(200); j++ {
				// Spread over ~6 orders of magnitude of latency.
				h.Observe(1e-6 * float64(uint64(1)<<uint(rng.Intn(20))))
			}
			shards[i] = h.Snapshot()
		}
		merged := mergeHistograms(shards...)
		var wantCount uint64
		for _, s := range shards {
			wantCount += s.Count
		}
		if merged.Count != wantCount {
			t.Fatalf("trial %d: merged Count = %d, want %d", trial, merged.Count, wantCount)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			mq := merged.Quantile(q)
			lo, hi := shards[0].Quantile(q), shards[0].Quantile(q)
			for _, s := range shards[1:] {
				if v := s.Quantile(q); v < lo {
					lo = v
				} else if v > hi {
					hi = v
				}
			}
			const eps = 1e-12
			if mq < lo-eps || mq > hi+eps {
				t.Fatalf("trial %d: merged q%g = %g outside per-shard range [%g, %g]",
					trial, q*100, mq, lo, hi)
			}
		}
	}
}

func TestMergeHistogramsUnionBounds(t *testing.T) {
	a := &obs.HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{1, 1, 0}, Count: 2, Sum: 2.5}
	b := &obs.HistogramSnapshot{Bounds: []float64{2, 4}, Counts: []uint64{2, 0, 1}, Count: 3, Sum: 9}
	m := mergeHistograms(a, b)
	if m.Count != 5 {
		t.Fatalf("union merge Count = %d, want 5", m.Count)
	}
	if m.Sum != 11.5 {
		t.Fatalf("union merge Sum = %g, want 11.5", m.Sum)
	}
	// Union bounds are {1,2,4}; a's counts land exactly, b's le=2 bucket
	// maps to the merged le=2 bucket, b's +Inf observation stays +Inf.
	if len(m.Bounds) != 3 || m.Bounds[0] != 1 || m.Bounds[1] != 2 || m.Bounds[2] != 4 {
		t.Fatalf("union bounds = %v, want [1 2 4]", m.Bounds)
	}
	if m.Counts[len(m.Counts)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", m.Counts[len(m.Counts)-1])
	}
	// Nil and empty inputs are skipped, not fatal.
	if got := mergeHistograms(nil, a, nil); got.Count != a.Count {
		t.Fatalf("nil-skipping merge Count = %d, want %d", got.Count, a.Count)
	}
}

func TestSumSeries(t *testing.T) {
	h1 := obs.NewHistogram(obs.LatencyBuckets...)
	h1.Observe(0.001)
	h2 := obs.NewHistogram(obs.LatencyBuckets...)
	h2.Observe(0.5)
	h2.Observe(0.5)
	n1 := []obs.Metric{
		obs.Counter("ops_total", "", 3, obs.L("op", "put")),
		obs.HistogramSample("h_seconds", "", h1, obs.L("op", "put")),
	}
	n2 := []obs.Metric{
		obs.Counter("ops_total", "", 4, obs.L("op", "put")),
		obs.Counter("ops_total", "", 1, obs.L("op", "get")),
		obs.HistogramSample("h_seconds", "", h2, obs.L("op", "put")),
	}
	sum := sumSeries(n1, n2)
	if len(sum) != 3 {
		t.Fatalf("SumSeries = %d series, want 3 (one per family and label set)", len(sum))
	}
	if sum[0].Value != 7 || sum[2].Value != 1 {
		t.Fatalf("summed counters = %g, %g; want 7, 1", sum[0].Value, sum[2].Value)
	}
	if sum[1].Hist.Count != 3 || sum[1].Hist.Quantile(0.99) < 0.1 {
		t.Fatalf("merged histogram = count %d p99 %g, want 3 with the slow tail", sum[1].Hist.Count, sum[1].Hist.Quantile(0.99))
	}
}

func TestIncrease(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyBuckets...)
	h.Observe(0.001)
	prev := []obs.Metric{
		obs.Counter("ops_total", "", 10, obs.L("op", "put")),
		obs.Counter("ops_total", "", 9, obs.L("op", "get")),
		obs.HistogramSample("h_seconds", "", h),
	}
	h.Observe(0.5)
	h.Observe(0.5)
	cur := []obs.Metric{
		obs.Counter("ops_total", "", 15, obs.L("op", "put")),
		obs.Counter("ops_total", "", 4, obs.L("op", "get")), // reset
		obs.Counter("new_total", "", 3),
		obs.Gauge("depth", "", 7),
		obs.HistogramSample("h_seconds", "", h),
	}
	inc := increase(cur, prev)
	if len(inc) != 4 {
		t.Fatalf("Increase = %d series, want 4 (the gauge dropped)", len(inc))
	}
	if inc[0].Value != 5 || inc[1].Value != 0 || inc[2].Value != 3 {
		t.Fatalf("increases = %g, %g, %g; want 5, 0 (reset), 3 (new series)", inc[0].Value, inc[1].Value, inc[2].Value)
	}
	if inc[3].Hist.Count != 2 || inc[3].Hist.Quantile(0.5) < 0.1 {
		t.Fatalf("histogram increase = count %d, want the 2 new slow observations", inc[3].Hist.Count)
	}
	if all := increase(cur, nil); all[0].Value != 15 || all[3].Hist.Count != 3 {
		t.Fatalf("Increase with no previous scrape = %g / %d, want the whole values", all[0].Value, all[3].Hist.Count)
	}
}

func TestStoreLabelOrderInsensitive(t *testing.T) {
	st := newStore()
	base := t0()
	m := obs.Gauge("g", "", 7, obs.L("a", "1"), obs.L("b", "2"))
	st.ingest(base, []obs.Metric{m})
	last, ok := st.gaugeStats("g", []obs.Label{obs.L("b", "2"), obs.L("a", "1")})
	if !ok || last != 7 {
		t.Fatalf("reordered-label lookup = %g, %v; want 7, true", last, ok)
	}
	if _, ok := st.gaugeStats("g", []obs.Label{obs.L("a", "1")}); ok {
		t.Fatal("subset labels must not match")
	}
}

func TestHistogramRingWraparound(t *testing.T) {
	st := smallStore(3)
	base := t0()
	h := obs.NewHistogram(obs.LatencyBuckets...)
	// 6 samples through a 3-slot ring, one new observation per tick.
	for i := 0; i < 6; i++ {
		h.Observe(0.001)
		st.ingest(base.Add(time.Duration(i)*time.Second), histMetric(h))
	}
	// Live window is samples 3..5 (counts 4..6); the widest delta inside
	// retention is newest − oldest-live = 6 − 4 = 2... but a window wider
	// than retention returns the full snapshot (6), never a double count.
	snap, ok := st.windowHistogram("h_seconds", nil, 2*time.Second)
	if !ok || snap.Count != 2 {
		t.Fatalf("in-retention window Count = %d, %v; want 2, true", snap.Count, ok)
	}
	snap, ok = st.windowHistogram("h_seconds", nil, time.Hour)
	if !ok || snap.Count != 6 {
		t.Fatalf("over-retention window Count = %d, %v; want 6 (full snapshot), true", snap.Count, ok)
	}
}
