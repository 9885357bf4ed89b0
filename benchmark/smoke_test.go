package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T) *config {
	return &config{seed: 42, setups: 1, measure: 200 * time.Millisecond, traced: 200 * time.Millisecond,
		small: true, opTimeout: 5 * time.Second, log: io.Discard, traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// Every workload at 200 ms with reduced sizes: every metric named in
// metrics.go is present and finite, nothing failed, the correctness checks
// passed, and the traced pass wrote a loadable Chrome trace.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res := runWorkload(w, cfg)
			if res.Failed != 0 || len(res.Failures) != 0 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.Attempted < 1 {
				t.Fatalf("attempted %d ops", res.Attempted)
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v): want a finite value above 0", d.Name, v, ok)
				}
			}
			if v, ok := res.EndToEnd[failRatio]; !ok || v != 0 {
				t.Errorf("%s = %v (present %v), want 0", failRatio, v, ok)
			}
			for _, d := range allPerLayer() {
				v, ok := res.PerLayer[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v): want a finite value", d.Name, v, ok)
				}
			}
			if n := len(res.PerLayer); n != len(allPerLayer()) {
				t.Errorf("%d per-layer metrics emitted, %d named", n, len(allPerLayer()))
			}
			if v := res.PerLayer["driver.leaked_goroutines"]; v != 0 {
				t.Errorf("driver.leaked_goroutines = %v", v)
			}
			if v := res.PerLayer["core.untidied_ops_per_s"]; w.tidies != (v > 0) {
				t.Errorf("core.untidied_ops_per_s = %v on a workload with tidies = %v: the as-deployed pass runs exactly there", v, w.tidies)
			}
			if v := res.PerLayer["core.cross_vp_handoff_us"]; w.name == "tuple_handoff" && runtime.GOMAXPROCS(0) > 1 && v <= 0 {
				t.Errorf("core.cross_vp_handoff_us = %v", v)
			}
			if v := res.PerLayer["vm.fallback_forms"]; v != 0 {
				t.Errorf("vm.fallback_forms = %v: the vm declined a benchmark program's form", v)
			}

			b, err := os.ReadFile(strings.Replace(cfg.traceOut, ".json", "."+w.name+".json", 1))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatalf("Chrome trace does not load: %v", err)
			}
			if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
				t.Fatalf("Chrome trace has %d events", len(trace.TraceEvents))
			}
		})
	}
}

// The latency budget of remote_rtt closes by construction: the floors plus
// remote.residual_us are the untraced op_p50_us.
func TestRTTBudgetCloses(t *testing.T) {
	res := runWorkload(workloadByName("remote_rtt"), smokeConfig(t))
	if res.Failed != 0 {
		t.Fatalf("failed: %v", res.Failures)
	}
	pl := res.PerLayer
	codec := 3 * (pl["tspace.codec_encode_ns"] + pl["tspace.codec_decode_ns"]) / 1e3
	floors := codec + 2*pl["sio.frame_rt_us"] + 2*(pl["tspace.put_ns"]+pl["tspace.get_hit_ns"])/1e3 +
		pl["core.blocks_per_op"]*pl["core.block_resume_us"]
	if got, want := floors+pl["remote.residual_us"], res.EndToEnd["op_p50_us"]; math.Abs(got-want) > 1e-6*want {
		t.Errorf("floors %.3f + residual %.3f = %.3f us, untraced op_p50_us = %.3f", floors, pl["remote.residual_us"], got, want)
	}
}

// The driver's contract: one JSON object as the last line, with exactly the
// four keys, every metric unit-tagged.
func TestContractLine(t *testing.T) {
	for _, mode := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"--workload", "tuple_handoff", "--seed", "7", "--seconds", "1", "--trace", mode, "-small"}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", mode, err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("trace %s: result keys %v", mode, got)
		}
		var ms map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if mode == "1" {
			want = allPerLayer()
		}
		if len(ms) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", mode, len(ms), len(want))
		}
		for _, d := range want {
			if m, ok := ms[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, want a value with unit %q", mode, d.Name, m, d.Unit)
			}
		}
	}
}

// A fast wrong answer is not a result: each injected fault must make the run
// exit non-zero and print no result line.
func TestNegativeControls(t *testing.T) {
	for fault, workload := range map[string]string{
		"corrupt-expected": "scheme_compute",
		"drop-result":      "tuple_backlog",
		"dup-put":          "remote_stream",
	} {
		t.Run(fault, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"--workload", workload, "--seconds", "1", "-small", "-inject", fault}, &stdout, &stderr)
			if code == 0 {
				t.Fatalf("exit 0 with %s injected\n%s", fault, stdout.String())
			}
			if !strings.Contains(stdout.String(), "FAILED:") {
				t.Errorf("no failure reported:\n%s", stdout.String())
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("a failed run printed a result line:\n%s", stdout.String())
			}
		})
	}
}

// BENCHMARK.json lists exactly the names the binary emits, with the bounds
// and units metrics.go fixes.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if def := workloadByName(w.Name); def == nil || def.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and main.go disagree on it", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the binary has %d", names, len(workloads))
	}
	check := func(kind string, got []metric, want []metricDef) {
		var g []metricDef
		for _, m := range got {
			g = append(g, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Gate: m.Bound})
		}
		for i := range want {
			want[i].Bound = 0 // -compare's bound is not the driver's business
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s: BENCHMARK.json lists\n%v\nthe binary emits\n%v", kind, g, want)
		}
	}
	check("end_to_end", spec.EndToEnd, append([]metricDef(nil), endToEnd...))
	check("per_layer", spec.PerLayer, allPerLayer())
}

// quartiles must agree with Python's statistics.quantiles(n=4), which is
// what the acceptance procedure computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

// -compare: ok within the bound, worse beyond it, unresolved — never
// unchanged — when a side's own spread is wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	tight := func(m float64) side {
		v := []float64{m * 0.99, m, m, m * 1.01}
		return side{values: v, samples: v}
	}
	noisy := func(m float64) side {
		v := []float64{m * 0.7, m * 0.9, m * 1.1, m * 1.3}
		return side{values: v, samples: v}
	}
	for _, c := range []struct {
		name string
		a, b side
		want string
	}{
		{"same", tight(100), tight(101), "ok"},
		{"better", tight(100), tight(50), "ok"},
		{"worse", tight(100), tight(115), "worse"},
		{"noisy", noisy(100), noisy(104), "unresolved"},
		{"noisy-but-apart", noisy(100), noisy(300), "worse"},
	} {
		if got, _, _, _ := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.10}
	if got, _, _, _ := verdict(up, tight(100), tight(85)); got != "worse" {
		t.Errorf("throughput −15%%: verdict %q, want worse", got)
	}
	fr := metricDef{Name: failRatio, Better: "lower"}
	if got, _, _, _ := verdict(fr, side{values: []float64{0}}, side{values: []float64{0.001}}); got != "worse" {
		t.Errorf("fail_ratio 0 → 0.001: verdict %q, want worse", got)
	}
}

// -compare refuses run sets of different shapes, and a pair measured on one
// side only is not passed over: the comparison exits non-zero.
func TestCompareIncomparable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envStamp, names ...string) string {
		run := &resultFile{Env: env}
		for _, n := range names {
			run.Workloads = append(run.Workloads, &workloadResult{Name: n, EndToEnd: metrics{"ops_per_s": 100}})
		}
		path := filepath.Join(dir, name)
		if err := appendRun(path, run); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := envStamp{NProc: 2, GOMAXPROCS: 2, Setups: 5, Duration: "8s"}
	longer := env
	longer.Duration = "4s"
	both := write("a.json", env, "forkjoin", "remote_rtt")
	for _, c := range []struct {
		name, other string
		want        int
	}{
		{"same", write("same.json", env, "forkjoin", "remote_rtt"), 0},
		{"other duration", write("short.json", longer, "forkjoin", "remote_rtt"), 2},
		{"workload missing in b", write("one.json", env, "forkjoin"), 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := compareFiles(both, c.other, &stdout, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, got, c.want, stdout.String(), stderr.String())
		}
	}
}
