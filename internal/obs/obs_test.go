package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGatherSortedAndReplaceable(t *testing.T) {
	r := NewRegistry()
	r.Register("b", CollectorFunc(func() []Metric {
		return []Metric{Counter("zz_total", "z", 1), Counter("aa_total", "a", 2)}
	}))
	r.Register("a", CollectorFunc(func() []Metric {
		return []Metric{Gauge("mm", "m", 3, L("vp", "1")), Gauge("mm", "m", 4, L("vp", "0"))}
	}))
	got := r.Gather()
	if len(got) != 4 {
		t.Fatalf("gathered %d metrics, want 4", len(got))
	}
	wantOrder := []string{"aa_total", "mm", "mm", "zz_total"}
	for i, m := range got {
		if m.Name != wantOrder[i] {
			t.Fatalf("position %d: got %s, want %s", i, m.Name, wantOrder[i])
		}
	}
	if got[1].Labels[0].Value != "0" || got[2].Labels[0].Value != "1" {
		t.Fatalf("same-family samples not sorted by labels: %+v", got[1:3])
	}
	// Replacing a source replaces its metrics.
	r.Register("b", CollectorFunc(func() []Metric { return nil }))
	if n := len(r.Gather()); n != 2 {
		t.Fatalf("after replace: %d metrics, want 2", n)
	}
	r.Unregister("a")
	if n := len(r.Gather()); n != 0 {
		t.Fatalf("after unregister: %d metrics, want 0", n)
	}
}

// TestRegistryGatherUnderMutation gathers while another goroutine
// registers and unregisters sources, as /metrics does while an embedder
// changes the process-wide registry; run it under -race.
func TestRegistryGatherUnderMutation(t *testing.T) {
	r := NewRegistry()
	r.Register("base", CollectorFunc(func() []Metric {
		return []Metric{Gauge("g", "", 1)}
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("dyn%d", i%4)
			r.Register(name, CollectorFunc(func() []Metric {
				return []Metric{Counter("dyn_total", "", float64(i))}
			}))
			r.Unregister(name)
		}
	}()
	for {
		select {
		case <-done:
			if n := len(r.Gather()); n != 1 {
				t.Fatalf("after the churn: %d metrics, want 1", n)
			}
			return
		default:
			r.Gather()
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // 0.5..7.5
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d, want 100", s.Count)
	}
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i%8) + 0.5
	}
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum %v, want %v", s.Sum, wantSum)
	}
	// Bucket counts: ≤1 gets 0.5 (13 of them: i%8==0 occurs 13 times for 0..99? 0,8,..96 → 13)
	if s.Counts[0] == 0 || s.Counts[len(s.Counts)-1] != 0 {
		t.Fatalf("unexpected bucket layout: %v", s.Counts)
	}
	p50 := s.Quantile(0.5)
	if p50 < 1 || p50 > 8 {
		t.Fatalf("p50 %v outside plausible range", p50)
	}
	if q := s.Quantile(0.99); q < p50 {
		t.Fatalf("p99 %v below p50 %v", q, p50)
	}
	// Values beyond the last bound land in +Inf and clamp to the top bound.
	h2 := NewHistogram(1, 2)
	h2.Observe(50)
	if q := h2.Snapshot().Quantile(0.5); q != 2 {
		t.Fatalf("+Inf quantile %v, want clamp to 2", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile %v, want 0", q)
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many
// goroutines; under -race this is the torn-write check, and afterwards
// the counts and sum must be exact (every Observe is an atomic add and a
// CAS loop — nothing may be lost).
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram() // latency buckets
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed+1) * 1e-5)
			}
		}(w)
	}
	// Snapshot concurrently with the writers: must stay internally
	// consistent (Count equals the bucket sum by construction).
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		var total uint64
		for _, c := range s.Counts {
			total += c
		}
		if total != s.Count {
			t.Fatalf("torn snapshot: bucket sum %d != count %d", total, s.Count)
		}
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("lost observations: %d, want %d", s.Count, workers*per)
	}
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		wantSum += float64(w+1) * 1e-5 * per
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum %v, want %v", s.Sum, wantSum)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	h := NewHistogram(0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	metrics := []Metric{
		Counter("sting_ops_total", "Ops served.", 42, L("op", "get")),
		Counter("sting_ops_total", "Ops served.", 7, L("op", `we"ird\n`)),
		Gauge("sting_depth", "Depth.", 3),
		HistogramSample("sting_lat_seconds", "Latency.", h),
	}
	var b strings.Builder
	if err := WritePrometheus(&b, metrics); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sting_ops_total counter",
		`sting_ops_total{op="get"} 42`,
		`sting_ops_total{op="we\"ird\\n"} 7`,
		"# TYPE sting_depth gauge",
		"sting_depth 3",
		"# TYPE sting_lat_seconds histogram",
		`sting_lat_seconds_bucket{le="0.1"} 1`,
		`sting_lat_seconds_bucket{le="1"} 2`,
		`sting_lat_seconds_bucket{le="+Inf"} 3`,
		"sting_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family even with several samples.
	if strings.Count(out, "# TYPE sting_ops_total") != 1 {
		t.Fatalf("TYPE emitted more than once:\n%s", out)
	}
	// Histogram with zero observations still yields a complete family.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, []Metric{HistogramSample("empty_seconds", "", nil)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), `empty_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram misrendered:\n%s", b2.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Register("x", CollectorFunc(func() []Metric {
		return []Metric{Counter("sting_x_total", "", 1)}
	}))
	healthy := true
	h := &Handler{
		Registry: r,
		Healthy: func() error {
			if !healthy {
				return errDraining
			}
			return nil
		},
		TraceEvents: func() []TraceEvent {
			return []TraceEvent{
				{TimeNanos: 10, Kind: "create", Thread: 1, VP: -1},
				{TimeNanos: 20, Kind: "schedule", Thread: 1, VP: 0},
				{TimeNanos: 30, Kind: "dispatch", Thread: 1, VP: 0},
				{TimeNanos: 40, Kind: "determine", Thread: 1, VP: 0},
			}
		},
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "sting_x_total 1") {
		t.Fatalf("/metrics: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
	healthy = false
	if rec := get("/healthz"); rec.Code != 503 {
		t.Fatalf("/healthz while draining: %d, want 503", rec.Code)
	}
	if rec := get("/debug/trace"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("/debug/trace: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/nope"); rec.Code != 404 {
		t.Fatalf("/nope: %d, want 404", rec.Code)
	}
	// Trace disabled → 404.
	h2 := &Handler{Registry: r}
	rec := httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("trace without source: %d, want 404", rec.Code)
	}
}

func TestHandlerLimitValidation(t *testing.T) {
	h := &Handler{
		TraceEvents: func() []TraceEvent {
			return []TraceEvent{{TimeNanos: 10, Kind: "create", Thread: 1, VP: -1}}
		},
		Spans: func() []*SpanData { return nil },
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	// A present limit must be a positive integer; anything else is a
	// 400, never a silent serve-everything default.
	for _, bad := range []string{"0", "-1", "abc", "1.5", ""} {
		if rec := get("/debug/spans?limit=" + bad); rec.Code != 400 {
			t.Errorf("/debug/spans?limit=%s: %d, want 400", bad, rec.Code)
		}
		if rec := get("/debug/trace?limit=" + bad); rec.Code != 400 {
			t.Errorf("/debug/trace?limit=%s: %d, want 400", bad, rec.Code)
		}
	}
	// Absent limit and valid limits still serve.
	for _, path := range []string{"/debug/spans", "/debug/spans?limit=5", "/debug/trace?limit=1"} {
		if rec := get(path); rec.Code != 200 {
			t.Errorf("%s: %d, want 200", path, rec.Code)
		}
	}
}

var errDraining = errDrainingT{}

type errDrainingT struct{}

func (errDrainingT) Error() string { return "draining" }
