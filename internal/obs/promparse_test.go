package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestParsePrometheusRoundTrip writes a mixed metric set through the
// repo's own exposition writer and reads it back: names, kinds, labels,
// values, and reassembled histogram buckets must all survive.
func TestParsePrometheusRoundTrip(t *testing.T) {
	h := NewHistogram(LatencyBuckets...)
	for _, v := range []float64{0.0005, 0.003, 0.003, 0.25} {
		h.Observe(v)
	}
	in := []Metric{
		Counter("sting_ops_total", "Ops.", 42, L("op", "get")),
		Counter("sting_ops_total", "Ops.", 7, L("op", "put")),
		Gauge("sting_depth", "Depth.", 3.5),
		Gauge("sting_odd", "A label value holding every character the text format escapes or delimits.", 1,
			L("space", "a}b\"c\\d\ne,f=g {")),
		HistogramSample("sting_lat_seconds", "Latency.", h, L("op", "get")),
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}

	byKey := make(map[string]Metric)
	for _, m := range out {
		byKey[m.Name+"{"+labelKey(m.Labels)+"}"] = m
	}
	get, ok := byKey[`sting_ops_total{op=get,}`]
	if !ok || get.Kind != KindCounter || get.Value != 42 || get.Help != "Ops." {
		t.Fatalf("counter round-trip = %+v, %v", get, ok)
	}
	if put := byKey[`sting_ops_total{op=put,}`]; put.Value != 7 {
		t.Fatalf("second labeled counter = %+v", put)
	}
	if g := byKey["sting_depth{}"]; g.Kind != KindGauge || g.Value != 3.5 {
		t.Fatalf("gauge round-trip = %+v", g)
	}
	if odd := byKey["sting_odd{space=a}b\"c\\d\ne,f=g {,}"]; odd.Value != 1 {
		t.Fatalf("odd label value lost: %+v", out)
	}
	hist, ok := byKey[`sting_lat_seconds{op=get,}`]
	if !ok || hist.Kind != KindHistogram || hist.Hist == nil {
		t.Fatalf("histogram round-trip = %+v, %v", hist, ok)
	}
	want := h.Snapshot()
	if hist.Hist.Count != want.Count || hist.Hist.Sum != want.Sum {
		t.Fatalf("histogram count/sum = %d/%g, want %d/%g",
			hist.Hist.Count, hist.Hist.Sum, want.Count, want.Sum)
	}
	if !slices.Equal(hist.Hist.Bounds, want.Bounds) {
		t.Fatalf("bounds = %v, want %v", hist.Hist.Bounds, want.Bounds)
	}
	for i := range want.Counts {
		if hist.Hist.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, hist.Hist.Counts[i], want.Counts[i])
		}
	}
	// The parsed snapshot answers quantiles like the original.
	if a, b := hist.Hist.Quantile(0.5), want.Quantile(0.5); a != b {
		t.Fatalf("p50 after round-trip = %g, want %g", a, b)
	}
}

func TestParsePrometheusTolerance(t *testing.T) {
	// Untyped family defaults to gauge; unknown comments skipped; escaped
	// label values unescaped; timestamps after the value ignored.
	src := `# HELP whatever something
# weird comment
plain_metric 1.5
labeled{path="a\"b\\c",msg="x\ny"} 2 1712345678
`
	out, err := ParsePrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d metrics, want 2", len(out))
	}
	if out[0].Kind != KindGauge || out[0].Value != 1.5 {
		t.Fatalf("untyped metric = %+v", out[0])
	}
	if out[1].Labels[0].Value != `a"b\c` || out[1].Labels[1].Value != "x\ny" {
		t.Fatalf("unescaped labels = %+v", out[1].Labels)
	}

	// A histogram missing its +Inf bucket still reconciles via _count.
	src = `# TYPE lat histogram
lat_bucket{le="0.1"} 3
lat_sum 0.2
lat_count 5
`
	out, err = ParsePrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Hist == nil {
		t.Fatalf("parsed %+v", out)
	}
	if out[0].Hist.Count != 5 || out[0].Hist.Counts[1] != 2 {
		t.Fatalf("implicit +Inf bucket = %+v", out[0].Hist)
	}

	// Malformed sample lines fail the whole parse with a line number.
	if _, err := ParsePrometheus(strings.NewReader("good 1\nbad{unclosed 2\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v, want line 2", err)
	}
	if _, err := ParsePrometheus(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("value-less line accepted")
	}
}
