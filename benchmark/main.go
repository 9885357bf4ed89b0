// stingmark is the repository's benchmark: seven closed-loop, fixed-duration,
// seeded, correctness-checked workloads run in one process — servers and
// shards are in-process remote.Servers on loopback, never child processes —
// each measured end to end with tracing off and then layer by layer with the
// benchmark's own spans and micro-probes on. README.md has the metric
// tables and the reasons for each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// The run shape is fixed: a flag that changed it would make result files
// that -compare cannot tell apart.
const (
	coldSetups = 5                // setup_s is their median
	warmupPass = 2 * time.Second  // discarded
	tracedPass = 3 * time.Second  // and as long again as deployed, on the workloads that tidy
	opTimeout  = 20 * time.Second // an op slower than this is a failed op
)

var workloads = []*workloadDef{
	{name: "forkjoin", tail: 0.99, setup: setupForkjoin, tidies: true,
		why: "core/policy do all the work: fork 256 thunks, steal, recycle TCBs, join; no tuple space, Scheme or wire"},
	{name: "tuple_handoff", tail: 0.99, setup: setupHandoff,
		why: "keyed ping-pong at depth 1 or less: every Get parks, so core block/wake and tspace wake targeting dominate, matching is ~0"},
	{name: "tuple_backlog", tail: 0.90, setup: setupBacklog,
		why: "2048-deep same-key bin with reads beside takes: tspace scan, lazy delete and compaction dominate, wake path is minor"},
	{name: "scheme_compute", tail: 0.90, setup: setupCompute,
		why: "fib, tak, nqueens, mandel read+compiled+run per pass: scheme reader and vm dispatch dominate, core/tspace/wire idle"},
	{name: "remote_rtt", tail: 0.99, setup: setupRTT, tidies: true,
		why: "smallest tuples, one Put+Get round trip over loopback: codec, sio, remote dispatch and one park/wake each way"},
	{name: "remote_stream", tail: 0.90, setup: setupStream, tidies: true,
		why: "4096 async batched 256-byte Puts per acknowledged window: remote batching, group commit and pooled frames"},
	{name: "cluster_farm", tail: 0.90, setup: setupFarm, tidies: true,
		why: "farm.scm under vm over 3 shards: cluster routing and fan-out Get dominate; vm is a small share and must not move it"},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// set by run.sh through -ldflags; "unknown" outside a git checkout
var commit = "unknown"

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stingmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print one JSON result line (the driver's contract)")
		seed      = fs.Int64("seed", 1, "seed for keys, payloads, task values and program order")
		seconds   = fs.Int("seconds", 8, "seconds measured per workload with tracing off (the issue's -duration)")
		traceMode = fs.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		list      = fs.String("workloads", "", "comma-separated workloads of a full run, in run order (default: all seven)")
		deadline  = fs.Duration("deadline", 0, "watchdog: exit 2 after this long (default: 170s with -workload, else each workload's passes + 30s)")
		out       = fs.String("out", "", "append this run to a result file (JSON) for -compare")
		traceOut  = fs.String("trace-out", "", "write each traced pass as Chrome trace JSON to <name>.<workload>.json")
		compare   = fs.Bool("compare", false, "compare two result files: stingmark -compare a.json b.json")
		small     = fs.Bool("small", false, "the smoke test's shape: reduced burst, window and round sizes, 100 ms warm-up, 2 s op timeout")
		printSpec = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as metrics.go and the workload table define it, and exit")
		inject    = fs.String("inject", "", "negative control: corrupt-expected | drop-result | dup-put (the run must exit non-zero)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		return printBenchmarkJSON(stdout)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: stingmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	if *seconds < 1 {
		fmt.Fprintln(stderr, "stingmark: -seconds must be at least 1")
		return 2
	}
	switch *inject {
	case "", "corrupt-expected", "drop-result", "dup-put":
	default:
		fmt.Fprintf(stderr, "stingmark: unknown -inject %q\n", *inject)
		return 2
	}
	cfg := &config{seed: *seed, setups: coldSetups, warmup: warmupPass, measure: time.Duration(*seconds) * time.Second,
		traced: tracedPass, opTimeout: opTimeout, small: *small, fault: *inject, traceOut: *traceOut, log: stdout}
	if *small {
		cfg.warmup, cfg.opTimeout = 100*time.Millisecond, 2*time.Second
	}
	var run []*workloadDef
	contract := false // -workload given, even empty: never fall through to a full run
	fs.Visit(func(f *flag.Flag) { contract = contract || f.Name == "workload" })
	switch {
	case contract:
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		run = []*workloadDef{w}
		if *traceMode == 0 {
			cfg.traced = 0
		} else {
			// the traced run splits its window: an untraced half for the
			// tracing overhead and the latency budget, then a quarter traced
			// and a quarter as deployed (harness.go)
			cfg.setups, cfg.warmup = 1, min(cfg.warmup, time.Second)
			cfg.measure, cfg.traced = cfg.measure/2, cfg.measure/4
		}
	case *list != "":
		for _, name := range strings.Split(*list, ",") {
			w := workloadByName(strings.TrimSpace(name))
			if w == nil {
				fmt.Fprintf(stderr, "unknown workload %q\n", name)
				return 2
			}
			run = append(run, w)
		}
	default:
		run = workloads
	}

	// No process outlives the run: this one has no children, and a watchdog
	// ends it if a workload wedges.
	limit := *deadline
	if limit == 0 {
		limit = 170 * time.Second // the contract's run must end within 180 s
		if !contract {
			limit = time.Duration(len(run)) * (cfg.warmup + cfg.measure + 2*cfg.traced + 30*time.Second)
		}
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "stingmark: deadline of %v exceeded, exiting; goroutines:\n", limit)
		pprof.Lookup("goroutine").WriteTo(stderr, 1) //nolint:errcheck // diagnostics on the way out
		os.Exit(2)
	})
	defer watchdog.Stop()

	file := &resultFile{Env: stamp(cfg)}
	fmt.Fprintf(stdout, "stingmark: commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, seed %d, loopback TCP (link rates not claimed)\n",
		file.Env.Commit, file.Env.GoVersion, file.Env.NProc, file.Env.GOMAXPROCS, file.Env.Kernel, cfg.seed)
	exit := 0
	for _, w := range run {
		fmt.Fprintf(stdout, "\n== %s — %s\n", w.name, w.why)
		res := runWorkload(w, cfg)
		file.Workloads = append(file.Workloads, res)
		printWorkload(stdout, res)
		if res.Failed > 0 {
			exit = 1
		}
	}
	if *out != "" {
		if err := appendRun(*out, file); err != nil {
			fmt.Fprintf(stderr, "stingmark: %v\n", err)
			exit = 1
		}
	}
	if contract {
		if exit != 0 {
			return exit // a failed run prints no result line
		}
		printContractLine(stdout, file.Workloads[0], *traceMode == 1)
	}
	return exit
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "  attempted %d, failed %d", res.Attempted, res.Failed)
	if res.Samples > 0 {
		fmt.Fprintf(w, ", %d latency samples, tail = p%g", res.Samples, res.Tail*100)
	}
	fmt.Fprintln(w)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, d := range fullRunEndToEnd() {
		if v, ok := res.EndToEnd[d.Name]; ok {
			line := fmt.Sprintf("  %-28s %14.6g %-7s", d.Name, v, d.Unit)
			if s := res.Slices[d.Name]; len(s) > 1 {
				q1, q3 := quartiles(s)
				line += fmt.Sprintf(" slices n=%d q1=%.4f q3=%.4f spread=%.1f%%", len(s), q1, q3, 100*spread(s))
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	if res.PerLayer == nil {
		return
	}
	for _, d := range allPerLayer() {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
	if len(res.SelfTime) > 0 {
		fmt.Fprintln(w, "  self time by span (traced pass):")
		for _, s := range res.SelfTime {
			fmt.Fprintf(w, "    %-24s n=%-8d total %12.1f us  self %12.1f us\n", s.Name, s.Count, s.TotalUS, s.SelfUS)
		}
	}
}

// printContractLine prints the driver's result object as the last line.
func printContractLine(w io.Writer, res *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if traced {
		for _, d := range allPerLayer() {
			line.Metrics[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = value{res.EndToEnd[d.Name], d.Unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
}

// envStamp is carried by every result file.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Warmup     string `json:"warmup"`
	Duration   string `json:"duration"`
	Traced     string `json:"traced"`
	Setups     int    `json:"setups"`
	Small      bool   `json:"small,omitempty"`
	Network    string `json:"network"`
	When       string `json:"when"`
}

// shape is what two runs must share for their numbers to be comparable.
func (e envStamp) shape() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, set-ups %d, warm-up %s, duration %s, traced %s, small %v, %s",
		e.NProc, e.GOMAXPROCS, e.Setups, e.Warmup, e.Duration, e.Traced, e.Small, e.Network)
}

func stamp(cfg *config) envStamp {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envStamp{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: kernel, Seed: cfg.seed, Warmup: cfg.warmup.String(), Duration: cfg.measure.String(), Traced: cfg.traced.String(),
		Setups: cfg.setups, Small: cfg.small, Network: "loopback", When: time.Now().UTC().Format(time.RFC3339)}
}

// printBenchmarkJSON writes the driver's view of the benchmark. The root
// BENCHMARK.json is this output; smoke_test.go fails when the two differ.
func printBenchmarkJSON(w io.Writer) int {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, wl := range workloads {
		spec.Workloads = append(spec.Workloads, workload{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Gate})
	}
	for _, d := range allPerLayer() {
		spec.PerLayer = append(spec.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}
