package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseObjective(t *testing.T) {
	o, err := parseObjective("get-latency: remote.get p99 < 2ms over 30s budget 99.9%")
	if err != nil {
		t.Fatal(err)
	}
	if o.name != "get-latency" || o.agg != "p99" || o.op != "<" {
		t.Fatalf("parsed %+v", o)
	}
	if o.metric.name != "sting_remote_op_latency_seconds" ||
		len(o.metric.labels) != 1 || o.metric.labels[0] != obs.L("op", "get") {
		t.Fatalf("alias expansion = %+v", o.metric)
	}
	if o.threshold != 0.002 {
		t.Fatalf("duration threshold = %g, want 0.002", o.threshold)
	}
	if o.window != 30*time.Second || math.Abs(o.budget-0.999) > 1e-9 {
		t.Fatalf("window/budget = %v/%g", o.window, o.budget)
	}

	o, err = parseObjective("aborts: sting_stm_aborts_total rate < 5% of sting_stm_commits_total over 60s")
	if err != nil {
		t.Fatal(err)
	}
	if o.threshold != 0.05 || o.denom == nil || o.denom.name != "sting_stm_commits_total" {
		t.Fatalf("ratio rule = %+v denom %+v", o, o.denom)
	}

	o, err = parseObjective("steals: sting_vp_steals_total rate < 10000/s over 30s")
	if err != nil {
		t.Fatal(err)
	}
	if o.threshold != 10000 {
		t.Fatalf("rate threshold = %g, want 10000", o.threshold)
	}

	o, err = parseObjective(`runq: sting_vp_runq_depth{vp="0"} value <= 128`)
	if err != nil {
		t.Fatal(err)
	}
	if o.window != 60*time.Second {
		t.Fatalf("default window = %v, want 60s", o.window)
	}
	if len(o.metric.labels) != 1 || o.metric.labels[0] != obs.L("vp", "0") {
		t.Fatalf("labels = %+v", o.metric.labels)
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
		if _, err := parseObjective(bad); err == nil {
			t.Errorf("parseObjective(%q) accepted, want error", bad)
		}
	}
}

func TestParseObjectives(t *testing.T) {
	src := `
# latency
a: remote.get p99 < 2ms over 60s
b: stm.commit p95 < 1ms over 30s; c: sting_remote_conns_active value < 100 over 10s
`
	objs, err := parseObjectives(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if _, err := parseObjectives("a: x value < 1 over 1s\na: y value < 1 over 1s"); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names = %v, want duplicate error", err)
	}
}

func TestClassifyWarnBand(t *testing.T) {
	lt := &objective{op: "<", threshold: 10}
	if s := classify(lt, 5); s != stateOK {
		t.Fatalf("5 < 10 = %v, want ok", s)
	}
	if s := classify(lt, 9); s != stateWarn {
		t.Fatalf("9 < 10 (past 80%%) = %v, want warn", s)
	}
	if s := classify(lt, 11); s != stateBreach {
		t.Fatalf("11 < 10 = %v, want breach", s)
	}
	gt := &objective{op: ">", threshold: 10}
	if s := classify(gt, 20); s != stateOK {
		t.Fatalf("20 > 10 = %v, want ok", s)
	}
	if s := classify(gt, 11); s != stateWarn {
		t.Fatalf("11 > 10 (within 1/0.8×) = %v, want warn", s)
	}
	if s := classify(gt, 9); s != stateBreach {
		t.Fatalf("9 > 10 = %v, want breach", s)
	}
}

func TestSLOEngineEvaluateAndBudget(t *testing.T) {
	objs, err := parseObjectives("lat: h_seconds p99 < 1ms over 60s budget 50%\n" +
		"depth: g value < 100 over 60s")
	if err != nil {
		t.Fatal(err)
	}
	e := newSLOEngine(objs)
	st := newStore()
	base := t0()

	// No data yet: both nodata, no budget consumed.
	sts := e.evaluate(base, st)
	if sts[0].State != stateNoData || sts[1].State != stateNoData {
		t.Fatalf("empty-store states = %s/%s, want nodata", sts[0].State, sts[1].State)
	}
	if sts[0].EvalsTotal != 0 {
		t.Fatal("nodata tick consumed an evaluation")
	}

	h := obs.NewHistogram(obs.LatencyBuckets...)
	h.Observe(0.5) // far over the 1ms threshold
	st.ingest(base, []obs.Metric{
		obs.HistogramSample("h_seconds", "", h),
		obs.Gauge("g", "", 10),
	})
	sts = e.evaluate(base.Add(time.Second), st)
	if sts[0].State != stateBreach {
		t.Fatalf("slow histogram state = %s, want breach", sts[0].State)
	}
	if sts[1].State != stateOK {
		t.Fatalf("gauge state = %s, want ok", sts[1].State)
	}
	// Budget 50%: one breach over one eval = burn 1/0.5 = 2.
	if sts[0].BudgetBurn != 2 {
		t.Fatalf("budget burn = %g, want 2", sts[0].BudgetBurn)
	}
}

func TestSLORateRatio(t *testing.T) {
	objs, err := parseObjectives("aborts: a_total rate < 50% of c_total over 60s")
	if err != nil {
		t.Fatal(err)
	}
	e := newSLOEngine(objs)
	st := newStore()
	base := t0()
	// aborts 2/s, commits 10/s → ratio 0.2, under the 0.5 threshold.
	for i := 0; i < 3; i++ {
		st.ingest(base.Add(time.Duration(i)*time.Second), []obs.Metric{
			obs.Counter("a_total", "", float64(2*i)),
			obs.Counter("c_total", "", float64(10*i)),
		})
	}
	sts := e.evaluate(base.Add(2*time.Second), st)
	if sts[0].State != stateOK || sts[0].Value != 0.2 {
		t.Fatalf("ratio eval = %s %g, want ok 0.2", sts[0].State, sts[0].Value)
	}

	// Numerator moves, denominator flat → maximally bad, breach.
	st2 := newStore()
	for i := 0; i < 3; i++ {
		st2.ingest(base.Add(time.Duration(i)*time.Second), []obs.Metric{
			obs.Counter("a_total", "", float64(5*i)),
			obs.Counter("c_total", "", 7),
		})
	}
	sts = newSLOEngine(objs).evaluate(base.Add(2*time.Second), st2)
	if sts[0].State != stateBreach {
		t.Fatalf("zero-denominator ratio = %s %g, want breach", sts[0].State, sts[0].Value)
	}
}

func TestWorstState(t *testing.T) {
	sts := []status{{State: stateOK}, {State: stateWarn}, {State: stateNoData}}
	if got := worstState(sts); got != stateWarn {
		t.Fatalf("WorstState = %v, want warn", got)
	}
	sts = append(sts, status{State: stateBreach})
	if got := worstState(sts); got != stateBreach {
		t.Fatalf("WorstState = %v, want breach", got)
	}
	if got := worstState(nil); got != stateNoData {
		t.Fatalf("empty WorstState = %v, want nodata", got)
	}
	// The report keeps the state as its name in JSON.
	for st, want := range map[sloState]string{stateNoData: "nodata", stateOK: "ok", stateWarn: "warn", stateBreach: "breach"} {
		b, err := json.Marshal(status{State: st})
		if err != nil || !strings.Contains(string(b), `"state":"`+want+`"`) {
			t.Fatalf("status JSON = %s, %v; want \"state\":%q", b, err, want)
		}
	}
}
