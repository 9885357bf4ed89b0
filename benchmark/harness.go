package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// config is one run's shape. The zero durations skip their pass.
type config struct {
	seed      int64
	setups    int           // cold set-ups; the median is setup_s
	warmup    time.Duration // discarded
	measure   time.Duration // untraced pass: every end-to-end number
	traced    time.Duration // traced pass + micro-probes: every per-layer number
	small     bool          // reduced sizes, for the smoke test
	opTimeout time.Duration // an op slower than this is a failed op
	fault     string        // negative control to inject ("" = none)
	traceOut  string        // Chrome trace file ("" = do not write)
	log       io.Writer     // progress lines
}

// env is what a workload's set-up sees: the machine shape and a seeded
// source for keys, payloads and task values.
type env struct {
	cfg     *config
	nproc   int // GOMAXPROCS; VPs and worker counts follow it
	drivers int // C = max(1, nproc/2) load-generator connections
	rng     *rand.Rand
}

// pick returns full, or small under the smoke test's reduced sizes.
func (e *env) pick(full, small int) int {
	if e.cfg.small {
		return small
	}
	return full
}

// workloadDef names one workload: what an op is, which latency percentile is
// its tail, and how to build it.
type workloadDef struct {
	name  string
	tail  float64
	why   string
	setup func(e *env) (instance, error)
	// tidies: the workload drops the determined-thread records of the VMs it
	// built as it goes (README, observation 3), which no stingd does. Its
	// traced run ends with one more pass that does not, as deployed, so the
	// cost the tidying hides stays in sight as core.untidied_* and
	// core.retained_b_per_op.
	tidies bool
}

// instance is one built system under test plus its load generator.
type instance interface {
	// shape is the driver count and how many ops one latency sample covers.
	shape() (drivers, per int)
	// run drives closed-loop ops until ph's deadline and returns once every
	// driver and helper thread of the pass has stopped.
	run(ph *phase) error
	// counters reads the layers' exported cumulative counters.
	counters() metrics
	// layers fills the per-layer metrics from the traced pass, the counter
	// deltas across it, and micro-probes run on the workload's own inputs.
	layers(lp *layerPass) error
	// close runs the end-of-run correctness checks and shuts everything
	// down in reverse order of construction.
	close() error
}

type metrics map[string]float64

// phase is one pass over a built instance: warm-up, measured or traced.
type phase struct {
	start, deadline int64
	tr              *tracer // nil unless this is the traced pass
	recs            []*recorder
	timeout         time.Duration
	fault           string
	untidied        bool // the as-deployed pass: determined-thread records are left to pile up

	firstOps  atomic.Int64 // set-up's pass: this many ops in all, whatever the deadline
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
}

// live reports whether drivers should start another op.
func (ph *phase) live() bool {
	if ph.failed.Load() != 0 {
		return false
	}
	return now() < ph.deadline || ph.firstOps.Add(-1) >= 0
}

// fail records a failed op (error, timeout or wrong answer). The first
// failure ends the pass: a fast wrong answer is not a result.
func (ph *phase) fail(format string, args ...any) {
	ph.failed.Add(1)
	ph.mu.Lock()
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
	ph.mu.Unlock()
}

// recorder is one driver's latency log: sample i covers per ops that ended
// at ends[i] and took lats[i] in total.
type recorder struct {
	per  int
	ends []int64
	lats []int64
}

// add records per ops that started at t0 and ended now.
func (r *recorder) add(t0 int64) {
	t1 := now()
	r.ends = append(r.ends, t1)
	r.lats = append(r.lats, t1-t0)
}

func newPhase(cfg *config, d time.Duration, drivers, per, capHint int, tr *tracer) *phase {
	ph := &phase{tr: tr, timeout: cfg.opTimeout, fault: cfg.fault}
	for i := 0; i < drivers; i++ {
		ph.recs = append(ph.recs, &recorder{per: per, ends: make([]int64, 0, capHint), lats: make([]int64, 0, capHint)})
	}
	ph.start = now()
	ph.deadline = ph.start + int64(d)
	return ph
}

// resSample is one reading of the process's resource counters.
type resSample struct {
	t     int64
	cpu   time.Duration // getrusage user+sys
	alloc uint64        // cumulative heap bytes allocated
}

func readRes() resSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return resSample{
		t:     now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

// sampleEvery reads the resource counters once a second into out; the
// readings bound the 1-second slices. The returned func stops the sampler and
// waits for it.
func sampleEvery(out *[]resSample) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				*out = append(*out, readRes())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// passResult is what one measured pass yields.
type passResult struct {
	ops      int64
	samples  int
	elapsed  time.Duration
	lats     []float64 // per-op latency in µs, sorted
	e2e      metrics
	slices   map[string][]float64
	gcCycles int64
	gcPause  time.Duration
}

// runPass runs one pass and reduces its recorders and resource readings.
func runPass(inst instance, ph *phase, tail float64) (*passResult, error) {
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	res := []resSample{readRes()}
	stop := sampleEvery(&res)
	err := inst.run(ph)
	stop()
	res = append(res, readRes())
	debug.ReadGCStats(&gc1)
	if err != nil {
		ph.fail("%v", err)
	}

	pr := &passResult{e2e: metrics{}, slices: map[string][]float64{}}
	pr.gcCycles = gc1.NumGC - gc0.NumGC
	pr.gcPause = gc1.PauseTotal - gc0.PauseTotal
	first, last := res[0], res[len(res)-1]
	pr.elapsed = time.Duration(last.t - first.t)
	for _, r := range ph.recs {
		pr.ops += int64(len(r.ends) * r.per)
		pr.samples += len(r.ends)
		for _, l := range r.lats {
			pr.lats = append(pr.lats, float64(l)/float64(r.per)/1e3)
		}
	}
	sort.Float64s(pr.lats)
	ph.attempted.Store(pr.ops + ph.failed.Load())
	if pr.ops == 0 {
		if ph.failed.Load() == 0 {
			ph.fail("no op completed")
		}
		return pr, errors.New("no op completed")
	}

	// 1-second slices, bounded by the resource readings. A trailing slice
	// shorter than half a second would be mostly boundary noise.
	if n := len(res); n > 2 && res[n-1].t-res[n-2].t < int64(500*time.Millisecond) {
		res = append(res[:n-2], res[n-1])
	}
	type cursor struct {
		i       int
		prevEnd int64
	}
	cur := make([]cursor, len(ph.recs))
	for i := range cur {
		cur[i].prevEnd = ph.start
	}
	for k := 1; k < len(res); k++ {
		var rate float64
		var n int64
		var lat []float64
		for d, r := range ph.recs {
			c := &cur[d]
			i0 := c.i
			for c.i < len(r.ends) && (r.ends[c.i] < res[k].t || k == len(res)-1) {
				lat = append(lat, float64(r.lats[c.i])/float64(r.per)/1e3)
				c.i++
			}
			if c.i > i0 {
				// the ops ran back to back from the previous slice's last
				// completion to this slice's: no 1/count quantisation
				lastEnd := r.ends[c.i-1]
				rate += float64((c.i-i0)*r.per) / (float64(lastEnd-c.prevEnd) / 1e9)
				c.prevEnd = lastEnd
				n += int64((c.i - i0) * r.per)
			}
		}
		if n == 0 {
			continue
		}
		sort.Float64s(lat)
		pr.slices["ops_per_s"] = append(pr.slices["ops_per_s"], rate)
		pr.slices["op_p50_us"] = append(pr.slices["op_p50_us"], percentileSorted(lat, 0.5))
		pr.slices["op_tail_us"] = append(pr.slices["op_tail_us"], percentileSorted(lat, tail))
		pr.slices["cpu_us_per_op"] = append(pr.slices["cpu_us_per_op"], float64(res[k].cpu-res[k-1].cpu)/1e3/float64(n))
		pr.slices["alloc_b_per_op"] = append(pr.slices["alloc_b_per_op"], float64(res[k].alloc-res[k-1].alloc)/float64(n))
	}

	pr.e2e["ops_per_s"] = median(pr.slices["ops_per_s"])
	pr.e2e["op_p50_us"] = percentileSorted(pr.lats, 0.5)
	pr.e2e["op_tail_us"] = percentileSorted(pr.lats, tail)
	pr.e2e["cpu_us_per_op"] = float64(last.cpu-first.cpu) / 1e3 / float64(pr.ops)
	pr.e2e["alloc_b_per_op"] = float64(last.alloc-first.alloc) / float64(pr.ops)
	return pr, nil
}

// layerPass is what an instance's layers method works from.
type layerPass struct {
	env      *env
	tr       *tracer
	traced   *passResult
	untraced *passResult // nil when the run had no untraced pass
	delta    metrics     // counters after − before the traced pass
	out      metrics
}

// perOp divides a counter delta by the traced pass's op count.
func (lp *layerPass) perOp(counter string) float64 {
	return lp.delta[counter] / float64(lp.traced.ops)
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name       string               `json:"name"`
	Tail       float64              `json:"tail_percentile"`
	Attempted  int64                `json:"attempted"`
	Failed     int64                `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Samples    int                  `json:"latency_samples"`
	EndToEnd   metrics              `json:"end_to_end,omitempty"`
	Slices     map[string][]float64 `json:"slices,omitempty"`
	PerLayer   metrics              `json:"per_layer,omitempty"`
	SelfTime   []selfTime           `json:"self_time,omitempty"`
	TraceDrops int64                `json:"trace_dropped_spans,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *workloadResult) absorb(ph *phase) {
	r.Attempted += ph.attempted.Load()
	r.Failed += ph.failed.Load()
	r.Failures = append(r.Failures, ph.failures...)
}

// runWorkload builds w (cold, cfg.setups times), warms it, measures it
// untraced, measures it traced, probes its layers, runs it once more as
// deployed if it tidies, checks and tears it down, and verifies nothing is
// left running.
func runWorkload(w *workloadDef, cfg *config) *workloadResult {
	res := &workloadResult{Name: w.name, Tail: w.tail, EndToEnd: metrics{}, Slices: map[string][]float64{}}
	e := &env{cfg: cfg, nproc: runtime.GOMAXPROCS(0), rng: rand.New(rand.NewSource(cfg.seed))}
	e.drivers = max(1, e.nproc/2)
	baseline := runtime.NumGoroutine()
	resetPeakRSS()

	// Cold set-up: build the machine/VM/interpreter/server/listener/dials and
	// complete the first op, so lazily made TCBs, first dials and first
	// compiles are inside. At least cfg.setups times, and for cheap set-ups
	// until 300 ms have gone by, so the median is over enough samples.
	var inst instance
	var setups []float64
	for began := time.Now(); len(setups) < max(1, cfg.setups) ||
		(cfg.setups > 1 && len(setups) < 200 && time.Since(began) < 300*time.Millisecond); {
		if inst != nil {
			if err := inst.close(); err != nil {
				res.fail("close after set-up %d: %v", len(setups), err)
			}
		}
		e.rng.Seed(cfg.seed) // every set-up builds the same inputs
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			res.fail("set-up: %v", err)
			res.Attempted = max(res.Attempted, res.Failed)
			return res
		}
		drivers, per := inst.shape()
		ph := newPhase(cfg, 0, drivers, per, 1, nil)
		ph.firstOps.Store(int64(drivers))
		if err := inst.run(ph); err != nil {
			ph.fail("%v", err)
		}
		if ph.failed.Load() > 0 {
			res.absorb(ph)
			res.fail("set-up %d: first op failed", len(setups)+1)
			break
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.EndToEnd["setup_s"] = median(setups)
	res.Slices["setup_s"] = setups
	fmt.Fprintf(cfg.log, "  set-up ×%d median %.6fs\n", len(setups), median(setups))

	// Warm-up also sizes the recorders so the measured pass does not grow them.
	drivers, per := inst.shape()
	capHint := 1 << 12
	if cfg.warmup > 0 && res.Failed == 0 {
		ph := newPhase(cfg, cfg.warmup, drivers, per, capHint, nil)
		wr, err := runPass(inst, ph, w.tail)
		if err != nil || ph.failed.Load() > 0 {
			res.absorb(ph)
		} else {
			rate := float64(wr.samples) / float64(drivers) / cfg.warmup.Seconds()
			capHint = int(rate*max(cfg.measure, cfg.traced).Seconds()*1.5) + 1024
		}
	}

	var untraced *passResult
	if cfg.measure > 0 && res.Failed == 0 {
		runtime.GC()
		ph := newPhase(cfg, cfg.measure, drivers, per, capHint, nil)
		pr, err := runPass(inst, ph, w.tail)
		res.absorb(ph)
		if err == nil {
			untraced = pr
			for k, v := range pr.e2e {
				res.EndToEnd[k] = v
			}
			for k, v := range pr.slices {
				res.Slices[k] = v
			}
			res.Samples = pr.samples
			fmt.Fprintf(cfg.log, "  untraced %.1fs: %d ops, %d latency samples, %d slices\n",
				pr.elapsed.Seconds(), pr.ops, pr.samples, len(pr.slices["ops_per_s"]))
		}
	}

	if cfg.traced > 0 && res.Failed == 0 {
		res.PerLayer = metrics{}
		for _, d := range allPerLayer() {
			res.PerLayer[d.Name] = 0
		}
		runtime.GC()
		tr := newTracer()
		defer tr.release()
		before := inst.counters()
		ph := newPhase(cfg, cfg.traced, drivers, per, capHint, tr)
		pr, err := runPass(inst, ph, w.tail)
		res.absorb(ph)
		if err == nil && ph.failed.Load() == 0 {
			lp := &layerPass{env: e, tr: tr, traced: pr, untraced: untraced, delta: metrics{}, out: res.PerLayer}
			for k, v := range inst.counters() {
				lp.delta[k] = v - before[k]
			}
			if err := inst.layers(lp); err != nil {
				res.fail("per-layer probes: %v", err)
			}
			steady := pr // the driver's own numbers describe the untraced pass when there is one
			if untraced != nil {
				steady = untraced
				u := untraced.e2e["ops_per_s"]
				lp.out["driver.trace_overhead_pct"] = 100 * (u - pr.e2e["ops_per_s"]) / u
			}
			lp.out["driver.slice_cv"] = cv(steady.slices["ops_per_s"])
			lp.out["driver.gc_cycles"] = float64(steady.gcCycles)
			lp.out["driver.gc_pause_ms"] = float64(steady.gcPause) / 1e6
			res.SelfTime = tr.selfTimes()
			res.TraceDrops = tr.dropped.Load()
			fmt.Fprintf(cfg.log, "  traced %.1fs: %d ops, %d spans (%d dropped)\n",
				pr.elapsed.Seconds(), pr.ops, len(tr.recorded()), res.TraceDrops)
			if cfg.traceOut != "" {
				if err := writeTraceFile(cfg.traceOut, w.name, tr); err != nil {
					res.fail("trace-out: %v", err)
				}
			}
		}
	}
	res.EndToEnd["peak_rss_mb"] = peakRSSMiB() // before the as-deployed pass, whose peak is the run's length

	if w.tidies && cfg.traced > 0 && res.Failed == 0 {
		ph := newPhase(cfg, cfg.traced, drivers, per, capHint, nil)
		ph.untidied = true
		h0 := liveHeap() // the phase's own recorders are in both readings
		ph.start = now()
		ph.deadline = ph.start + int64(cfg.traced)
		pr, err := runPass(inst, ph, w.tail)
		res.absorb(ph)
		if err == nil && ph.failed.Load() == 0 {
			res.PerLayer["core.retained_b_per_op"] = (liveHeap() - h0) / float64(pr.ops)
			res.PerLayer["core.untidied_ops_per_s"] = pr.e2e["ops_per_s"]
			res.PerLayer["core.untidied_cpu_us_per_op"] = pr.e2e["cpu_us_per_op"]
			fmt.Fprintf(cfg.log, "  as deployed %.1fs: %d ops\n", pr.elapsed.Seconds(), pr.ops)
		}
	}

	if err := inst.close(); err != nil {
		res.fail("end-of-run check: %v", err)
	}
	if res.PerLayer != nil {
		for _, d := range demoted {
			res.PerLayer["driver."+d.Name] = res.EndToEnd[d.Name]
		}
	}

	// Nothing outlives the workload: goroutines above the baseline one second
	// after teardown are a leak, and a leak fails the run.
	leaked := 0
	for waited := time.Duration(0); ; waited += 20 * time.Millisecond {
		if leaked = runtime.NumGoroutine() - baseline; leaked <= 0 || waited >= time.Second {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leaked > 0 {
		res.fail("%d goroutines still running 1s after teardown", leaked)
		if res.PerLayer != nil {
			res.PerLayer["driver.leaked_goroutines"] = float64(leaked)
		}
	}
	res.Attempted = max(res.Attempted, res.Failed, 1)
	res.EndToEnd[failRatio] = float64(res.Failed) / float64(res.Attempted)
	return res
}

func writeTraceFile(path, workload string, tr *tracer) error {
	// one file per workload: trace.json → trace.<workload>.json
	if i := strings.LastIndex(path, "."); i > 0 {
		path = path[:i] + "." + workload + path[i:]
	} else {
		path += "." + workload
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, workload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveHeap is the bytes of heap objects that survive a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// resetPeakRSS clears the kernel's high-water mark so peak_rss_mb is per
// workload even when one process runs all seven. Where the kernel refuses,
// the mark stays cumulative over the process.
func resetPeakRSS() {
	// else the mark starts at what earlier workloads left resident
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort
}

// peakRSSMiB reads VmHWM, the peak resident set size.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveThreads counts vm's undetermined threads, giving ones that have
// answered but not yet retired up to a second to do so.
func liveThreads(vm *core.VM) int {
	for waited := time.Duration(0); ; waited += time.Millisecond {
		n := len(vm.LiveThreadInfos())
		if n == 0 || waited >= time.Second {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
