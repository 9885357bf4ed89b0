package tsdb

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("get-latency: remote.get p99 < 2ms over 30s budget 99.9%")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "get-latency" || o.Agg != "p99" || o.Op != "<" {
		t.Fatalf("parsed %+v", o)
	}
	if o.Metric.Name != "sting_remote_op_latency_seconds" ||
		len(o.Metric.Labels) != 1 || o.Metric.Labels[0] != obs.L("op", "get") {
		t.Fatalf("alias expansion = %+v", o.Metric)
	}
	if o.Threshold != 0.002 {
		t.Fatalf("duration threshold = %g, want 0.002", o.Threshold)
	}
	if o.Window != 30*time.Second || math.Abs(o.Budget-0.999) > 1e-9 {
		t.Fatalf("window/budget = %v/%g", o.Window, o.Budget)
	}

	o, err = ParseObjective("aborts: sting_stm_aborts_total rate < 5% of sting_stm_commits_total over 60s")
	if err != nil {
		t.Fatal(err)
	}
	if o.Threshold != 0.05 || o.Denom == nil || o.Denom.Name != "sting_stm_commits_total" {
		t.Fatalf("ratio rule = %+v denom %+v", o, o.Denom)
	}

	o, err = ParseObjective("steals: sting_vp_steals_total rate < 10000/s over 30s")
	if err != nil {
		t.Fatal(err)
	}
	if o.Threshold != 10000 {
		t.Fatalf("rate threshold = %g, want 10000", o.Threshold)
	}

	o, err = ParseObjective(`runq: sting_vp_runq_depth{vp="0"} value <= 128`)
	if err != nil {
		t.Fatal(err)
	}
	if o.Window != 60*time.Second {
		t.Fatalf("default window = %v, want 60s", o.Window)
	}
	if len(o.Metric.Labels) != 1 || o.Metric.Labels[0] != obs.L("vp", "0") {
		t.Fatalf("labels = %+v", o.Metric.Labels)
	}

	for _, bad := range []string{
		"no-colon-rule",
		"x: metric p42 < 1 over 10s",             // unknown agg
		"x: metric p99 ~ 1 over 10s",             // unknown op
		"x: metric p99 < banana over 10s",        // bad threshold
		"x: metric p99 < 1 over -10s",            // bad window
		"x: metric rate < 5% over 10s",           // % rate without denominator
		"x: metric p99 < 1 of other over 10s",    // of without rate
		"x: metric p99 < 1 over 10s budget 150%", // budget out of range
		"x: metric{op=get p99 < 1 over 10s",      // unterminated labels
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) accepted, want error", bad)
		}
	}
}

func TestParseObjectives(t *testing.T) {
	src := `
# latency
a: remote.get p99 < 2ms over 60s
b: stm.commit p95 < 1ms over 30s; c: sting_remote_conns_active value < 100 over 10s
`
	objs, err := ParseObjectives(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if _, err := ParseObjectives("a: x value < 1 over 1s\na: y value < 1 over 1s"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names = %v, want duplicate error", err)
	}
}

func TestClassifyWarnBand(t *testing.T) {
	lt := &Objective{Op: "<", Threshold: 10}
	if s := classify(lt, 5); s != StateOK {
		t.Fatalf("5 < 10 = %v, want ok", s)
	}
	if s := classify(lt, 9); s != StateWarn {
		t.Fatalf("9 < 10 (past 80%%) = %v, want warn", s)
	}
	if s := classify(lt, 11); s != StateBreach {
		t.Fatalf("11 < 10 = %v, want breach", s)
	}
	gt := &Objective{Op: ">", Threshold: 10}
	if s := classify(gt, 20); s != StateOK {
		t.Fatalf("20 > 10 = %v, want ok", s)
	}
	if s := classify(gt, 11); s != StateWarn {
		t.Fatalf("11 > 10 (within 1/0.8×) = %v, want warn", s)
	}
	if s := classify(gt, 9); s != StateBreach {
		t.Fatalf("9 > 10 = %v, want breach", s)
	}
}

func TestSLOEngineEvaluateAndBudget(t *testing.T) {
	objs, err := ParseObjectives("lat: h_seconds p99 < 1ms over 60s budget 50%\n" +
		"depth: g value < 100 over 60s")
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs)
	st := NewStore(16)
	base := t0()

	// No data yet: both nodata, no budget consumed.
	sts := e.Evaluate(base, st)
	if sts[0].State != "nodata" || sts[1].State != "nodata" {
		t.Fatalf("empty-store states = %s/%s, want nodata", sts[0].State, sts[1].State)
	}
	if sts[0].EvalsTotal != 0 {
		t.Fatal("nodata tick consumed an evaluation")
	}

	h := obs.NewHistogram(obs.LatencyBuckets...)
	h.Observe(0.5) // far over the 1ms threshold
	st.Ingest(base, []obs.Metric{
		obs.HistogramSample("h_seconds", "", h),
		obs.Gauge("g", "", 10),
	})
	sts = e.Evaluate(base.Add(time.Second), st)
	if sts[0].State != "breach" {
		t.Fatalf("slow histogram state = %s, want breach", sts[0].State)
	}
	if sts[1].State != "ok" {
		t.Fatalf("gauge state = %s, want ok", sts[1].State)
	}
	// Budget 50%: one breach over one eval = burn 1/0.5 = 2.
	if sts[0].BudgetBurn != 2 {
		t.Fatalf("budget burn = %g, want 2", sts[0].BudgetBurn)
	}
}

func TestSLORateRatio(t *testing.T) {
	objs, err := ParseObjectives("aborts: a_total rate < 50% of c_total over 60s")
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs)
	st := NewStore(16)
	base := t0()
	// aborts 2/s, commits 10/s → ratio 0.2, under the 0.5 threshold.
	for i := 0; i < 3; i++ {
		st.Ingest(base.Add(time.Duration(i)*time.Second), []obs.Metric{
			obs.Counter("a_total", "", float64(2*i)),
			obs.Counter("c_total", "", float64(10*i)),
		})
	}
	sts := e.Evaluate(base.Add(2*time.Second), st)
	if sts[0].State != "ok" || sts[0].Value != 0.2 {
		t.Fatalf("ratio eval = %s %g, want ok 0.2", sts[0].State, sts[0].Value)
	}

	// Numerator moves, denominator flat → maximally bad, breach.
	st2 := NewStore(16)
	for i := 0; i < 3; i++ {
		st2.Ingest(base.Add(time.Duration(i)*time.Second), []obs.Metric{
			obs.Counter("a_total", "", float64(5*i)),
			obs.Counter("c_total", "", 7),
		})
	}
	sts = NewSLOEngine(objs).Evaluate(base.Add(2*time.Second), st2)
	if sts[0].State != "breach" {
		t.Fatalf("zero-denominator ratio = %s %g, want breach", sts[0].State, sts[0].Value)
	}
}

func TestWorstState(t *testing.T) {
	sts := []Status{{State: "ok"}, {State: "warn"}, {State: "nodata"}}
	if got := WorstState(sts); got != StateWarn {
		t.Fatalf("WorstState = %v, want warn", got)
	}
	sts = append(sts, Status{State: "breach"})
	if got := WorstState(sts); got != StateBreach {
		t.Fatalf("WorstState = %v, want breach", got)
	}
	if got := WorstState(nil); got != StateNoData {
		t.Fatalf("empty WorstState = %v, want nodata", got)
	}
}
