package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tspace"
)

// tupleEnv is the machine, VM and one KindHash space both tuple workloads
// run on.
type tupleEnv struct {
	m  *core.Machine
	vm *core.VM
	ts tspace.TupleSpace

	// sampled during the traced pass only
	depths  []float64
	waiters int
}

func newTupleEnv(e *env, name string) (*tupleEnv, error) {
	m := core.NewMachine(core.MachineConfig{Processors: e.nproc})
	vm, err := m.NewVM(core.VMConfig{Name: name, VPs: e.nproc})
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	return &tupleEnv{m: m, vm: vm, ts: tspace.New(tspace.KindHash, tspace.Config{})}, nil
}

// wakeStatser is the wait-table counter surface the hash representation
// exports.
type wakeStatser interface {
	WakeStats() (wakes, misses, handoffs uint64)
}

func (t *tupleEnv) counters() metrics {
	c := vmCounters(t.vm)
	if ws, ok := t.ts.(wakeStatser); ok {
		w, m, h := ws.WakeStats()
		c["wakes"], c["wake_misses"], c["handoffs"] = float64(w), float64(m), float64(h)
	}
	return c
}

// watch samples the space's depth and blocked-table size every millisecond
// while a traced pass runs; the returned func stops the sampler and waits
// for it.
func (t *tupleEnv) watch(ph *phase) (stop func()) {
	if ph.tr == nil {
		return func() {}
	}
	t.depths, t.waiters = t.depths[:0], 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				t.depths = append(t.depths, float64(t.ts.Len()))
				if wc, ok := t.ts.(tspace.WaiterCount); ok {
					t.waiters = max(t.waiters, wc.Waiters())
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (t *tupleEnv) tspaceMetrics(lp *layerPass) {
	coreCounterMetrics(lp)
	lp.out["tspace.depth_p50"] = median(t.depths)
	lp.out["tspace.depth_max"] = percentile(t.depths, 1)
	lp.out["tspace.waiters_max"] = float64(t.waiters)
	lp.out["tspace.wakes_per_op"] = lp.perOp("wakes")
	lp.out["tspace.handoffs_per_op"] = lp.perOp("handoffs")
	if w := lp.delta["wakes"]; w > 0 {
		lp.out["tspace.wake_miss_ratio"] = lp.delta["wake_misses"] / w
	}
}

func (t *tupleEnv) close() error {
	n, live := t.ts.Len(), liveThreads(t.vm)
	t.m.Shutdown()
	if n != 0 {
		return fmt.Errorf("tuple space holds %d tuples at the end, want 0", n)
	}
	if live != 0 {
		return fmt.Errorf("%d threads still live at shutdown", live)
	}
	return nil
}

// ---------------------------------------------------------------------------

// handoff: nproc keyed pairs in one KindHash space. One op is one keyed
// ping-pong — 2 Puts + 2 blocking Gets, window 1 — so depth stays ≤ 1 and
// every Get parks: core block/wake and the wait table's targeted wake-up do
// the work, matching cost is ~0. Ops are timed in blocks of handoffBlock.
//
// Both threads of pair p live on VP p, so a hand-off is a park and a
// dispatch on one VP and the pairs run side by side. Placed on different
// VPs, every hand-off is a cross-VP wake whose latency depends on whether
// the other processor is scanning or asleep, and whole runs fall into one
// of two regimes (p50 3.9 µs or 9.4 µs; README, observation 10). The traced
// run ends with a short pass placed that way, so the regime the end-to-end
// rows leave out is reported as core.cross_vp_handoff_us.
type handoff struct {
	*tupleEnv
	pairs int
	base  []int64 // seeded first sequence number per pair
	cross bool    // pair p's echo runs on the next VP
}

const handoffBlock = 16

func setupHandoff(e *env) (instance, error) {
	t, err := newTupleEnv(e, "tuple_handoff")
	if err != nil {
		return nil, err
	}
	h := &handoff{tupleEnv: t, pairs: e.nproc}
	for p := 0; p < h.pairs; p++ {
		h.base = append(h.base, e.rng.Int63n(1<<40))
	}
	return h, nil
}

func (h *handoff) shape() (int, int) { return h.pairs, handoffBlock }

func (h *handoff) run(ph *phase) error {
	defer h.watch(ph)()
	tr := ph.tr
	var threads []*core.Thread
	for p := 0; p < h.pairs; p++ {
		ping, pong := int64(2*p), int64(2*p+1)
		rec, lane, seq0 := ph.recs[p], p, h.base[p]
		echoVP := p
		if h.cross {
			echoVP = (p + 1) % h.pairs
		}
		// echo: Get the ping, Put the pong with the same sequence number; a
		// negative number retires it.
		threads = append(threads, h.vm.SpawnOn(h.vm.VP(echoVP), func(ctx *core.Context) ([]core.Value, error) {
			for {
				_, b, err := h.ts.Get(ctx, tspace.Template{ping, tspace.F("n")})
				if err != nil {
					return nil, err
				}
				n := b["n"].(int64)
				if n < 0 {
					return nil, nil
				}
				if err := h.ts.Put(ctx, tspace.Tuple{pong, n}); err != nil {
					return nil, err
				}
			}
		}, core.WithName("handoff-echo"), core.WithStealable(false)))
		threads = append(threads, h.vm.SpawnOn(h.vm.VP(p), func(ctx *core.Context) ([]core.Value, error) {
			defer h.ts.Put(ctx, tspace.Tuple{ping, int64(-1)}) //nolint:errcheck // retire the echo
			seq := seq0
			for blk := int64(0); ph.live(); blk++ {
				// one block in 16 is traced call by call; the rest carry the
				// block span only, so tracing does not swamp a ~µs op
				detail := tr != nil && blk%16 == 0
				t0 := now()
				sOp := tr.begin(spOp, noSpan, blk, lane)
				for i := 0; i < handoffBlock; i++ {
					seq++
					var s spanID
					if detail {
						s = tr.begin(spTSPut, sOp, seq, lane)
					}
					if err := h.ts.Put(ctx, tspace.Tuple{ping, seq}); err != nil {
						return nil, err
					}
					if detail {
						tr.end(s)
						s = tr.begin(spTSGetPark, sOp, seq, lane)
					}
					_, b, err := h.ts.Get(ctx, tspace.Template{pong, tspace.F("n")})
					if err != nil {
						return nil, err
					}
					if detail {
						tr.end(s)
					}
					if got := b["n"].(int64); got != seq {
						ph.fail("tuple_handoff pair %d: echoed sequence %d, want %d", lane, got, seq)
						return nil, nil
					}
				}
				tr.end(sOp)
				rec.add(t0)
			}
			return nil, nil
		}, core.WithName("handoff-driver"), core.WithStealable(false)))
	}
	var first error
	for _, t := range threads {
		if _, err := core.JoinThread(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (h *handoff) layers(lp *layerPass) error {
	h.tspaceMetrics(lp)
	lp.out["tspace.task_us"] = lp.tr.medianUS(spOp) / handoffBlock
	if err := probeCore(lp, h.vm); err != nil {
		return err
	}
	// resident depth ≤ 1: every probe tuple has a key of its own
	if err := probeTSpace(lp, h.vm, 0, func(i int) core.Value { return int64(1000 + i) }); err != nil {
		return err
	}
	if h.pairs < 2 {
		return nil // one VP: there is no other to wake
	}
	ph := newPhase(lp.env.cfg, time.Duration(lp.env.pick(1000, 50))*time.Millisecond, h.pairs, handoffBlock, 1<<16, nil)
	h.cross = true
	err := h.run(ph)
	h.cross = false
	if err == nil && ph.failed.Load() > 0 {
		err = errors.New(ph.failures[0])
	}
	var lats []float64
	for _, r := range ph.recs {
		for _, l := range r.lats {
			lats = append(lats, float64(l)/handoffBlock/1e3)
		}
	}
	lp.out["core.cross_vp_handoff_us"] = median(lats)
	return err
}

// ---------------------------------------------------------------------------

// backlog: the paper's §4.2 master/slave shape with a deep same-key bin.
// One op is one burst in three steps, so that every step works on the full
// depth whatever the scheduler does: the master deposits burst ("task", n)
// tuples under one key; it releases the nproc workers, which Get
// ("task", ?n) and Put ("result", n, n²) while one reader thread TryRds
// ("task", ?n) beside their takes; when the workers report done it collects
// every result from the equally deep result bin. Scan, lazy delete and
// compaction dominate — the regime where per-op cost grows with depth.
//
// The steps are separate because left to overlap freely the same burst ran,
// at random, anywhere between 29 and 61 bursts/s (README, observations):
// cost per take follows the depth at that moment, and which of master,
// workers and reader shared a VP when decided the depth.
type backlog struct {
	*tupleEnv
	workers int
	burst   int
	base    int64 // seeded: burst b deposits tasks from base+(b mod 64)*burst, small enough that Σn² fits int64
}

// Workers yield, and the reader reads, once per readEvery tasks.
const readEvery = 8

func setupBacklog(e *env) (instance, error) {
	t, err := newTupleEnv(e, "tuple_backlog")
	if err != nil {
		return nil, err
	}
	return &backlog{tupleEnv: t, workers: e.nproc, burst: e.pick(2048, 128), base: 1 + e.rng.Int63n(1<<20)}, nil
}

func (b *backlog) shape() (int, int) { return 1, 1 }

// sumSquares is Σ n² for n in [lo, lo+count).
func sumSquares(lo, count int64) int64 {
	sq := func(n int64) int64 { return (n - 1) * n * (2*n - 1) / 6 } // Σ_{k<n} k²
	return sq(lo+count) - sq(lo)
}

var errOpTimeout = errors.New("op timed out")

func (b *backlog) run(ph *phase) error {
	defer b.watch(ph)()
	tr := ph.tr
	taskTpl := tspace.Template{"task", tspace.F("n")}
	var malformed atomic.Int64
	var dropOnce atomic.Bool

	// The reader TryRds once per readEvery tasks taken. It parks between
	// reads; the worker that takes the readEvery-th task wakes it and yields
	// its VP, so the read really runs beside the takes — two busy workers
	// on two VPs would otherwise starve it until the bin is empty. It never
	// uses the blocking Rd: a parked Rd waiter under continuous takes is
	// hardly ever served.
	var taken atomic.Int64
	var stop atomic.Bool
	var readerTCB atomic.Pointer[core.TCB]
	reader := b.vm.SpawnOn(b.vm.VP(1), func(ctx *core.Context) ([]core.Value, error) {
		readerTCB.Store(ctx.TCB())
		for mark := int64(readEvery); ; mark += readEvery {
			ctx.BlockUntil(func() bool { return taken.Load() >= mark || stop.Load() })
			if stop.Load() {
				return nil, nil
			}
			_, bind, err := b.ts.TryRd(ctx, taskTpl)
			if err == nil {
				if n, ok := bind["n"].(int64); !ok || n < b.base {
					malformed.Add(1)
				}
			} else if !errors.Is(err, tspace.ErrNoMatch) {
				return nil, err
			}
		}
	}, core.WithName("backlog-reader"), core.WithStealable(false))

	var helpers []*core.Thread
	for w := 0; w < b.workers; w++ {
		lane := 1 + w
		helpers = append(helpers, b.vm.SpawnOn(b.vm.VP(w), func(ctx *core.Context) ([]core.Value, error) {
			for k := int64(0); ; {
				_, bind, err := b.ts.Get(ctx, tspace.Template{"go", tspace.F("share")})
				if err != nil {
					return nil, err
				}
				share := bind["share"].(int64)
				if share < 0 {
					return nil, nil
				}
				for ; share > 0; share, k = share-1, k+1 {
					s := noSpan
					if k%64 == 0 {
						s = tr.begin(spTSTask, noSpan, k, lane)
					}
					_, bind, err := b.ts.Get(ctx, taskTpl)
					if err != nil {
						return nil, err
					}
					n := bind["n"].(int64)
					if ph.fault == "drop-result" && dropOnce.CompareAndSwap(false, true) {
						continue // negative control: this task's result is never deposited
					}
					if err := b.ts.Put(ctx, tspace.Tuple{"result", n, n * n}); err != nil {
						return nil, err
					}
					tr.end(s)
					if taken.Add(1)%readEvery == 0 {
						if tcb := readerTCB.Load(); tcb != nil {
							core.WakeTCB(tcb)
						}
						ctx.Yield()
					}
				}
				if err := b.ts.Put(ctx, tspace.Tuple{"done"}); err != nil {
					return nil, err
				}
			}
		}, core.WithName("backlog-worker"), core.WithStealable(false)))
	}

	_, err := core.JoinThread(b.vm.SpawnOn(b.vm.VP(0), func(ctx *core.Context) ([]core.Value, error) {
		// an op slower than the timeout is a failed op, not a hang
		deadline := tspace.NewCancelToken()
		var runErr error
		tspace.WithCancel(ctx, deadline, func() {
			for op := int64(0); ph.live(); op++ {
				next := b.base + op%64*int64(b.burst)
				timer := time.AfterFunc(ph.timeout, func() { deadline.Cancel(errOpTimeout) })
				t0 := now()
				sOp := tr.begin(spOp, noSpan, op, 0)
				s := tr.begin(spDeposit, sOp, op, 0)
				for i := 0; i < b.burst; i++ {
					if runErr = b.ts.Put(ctx, tspace.Tuple{"task", next + int64(i)}); runErr != nil {
						return
					}
				}
				tr.end(s)
				s = tr.begin(spDrain, sOp, op, 0)
				for w := 0; w < b.workers; w++ {
					share := (b.burst + w) / b.workers // the shares sum to the burst
					if runErr = b.ts.Put(ctx, tspace.Tuple{"go", int64(share)}); runErr != nil {
						return
					}
				}
				for w := 0; w < b.workers; w++ {
					if _, _, runErr = b.ts.Get(ctx, tspace.Template{"done"}); runErr != nil {
						return
					}
				}
				tr.end(s)
				s = tr.begin(spCollect, sOp, op, 0)
				var sum int64
				for i := 0; i < b.burst; i++ {
					_, bind, err := b.ts.Get(ctx, tspace.Template{"result", tspace.F("n"), tspace.F("sq")})
					if err != nil {
						timer.Stop()
						ph.fail("tuple_backlog burst %d: collected %d of %d results: %v", op, i, b.burst, err)
						return
					}
					sum += bind["sq"].(int64)
				}
				tr.end(s)
				tr.end(sOp)
				timer.Stop()
				if want := sumSquares(next, int64(b.burst)); sum != want {
					ph.fail("tuple_backlog burst %d: Σn² = %d, want %d", op, sum, want)
					return
				}
				if n := b.ts.Len(); n != 0 {
					ph.fail("tuple_backlog burst %d: %d tuples left in the space", op, n)
					return
				}
				ph.recs[0].add(t0)
			}
		})
		return nil, runErr
	}, core.WithName("backlog-master"), core.WithStealable(false)))

	// retire the helpers: stop the reader, one negative share per worker
	stop.Store(true)
	if tcb := readerTCB.Load(); tcb != nil {
		core.WakeTCB(tcb)
	}
	if _, jerr := core.JoinThread(reader); jerr != nil && err == nil {
		err = jerr
	}
	if _, perr := b.vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		for range helpers {
			if e := b.ts.Put(ctx, tspace.Tuple{"go", int64(-1)}); e != nil {
				return nil, e
			}
		}
		return nil, nil
	}); perr != nil && err == nil {
		err = perr
	}
	for _, t := range helpers {
		if _, jerr := core.JoinThread(t); jerr != nil && err == nil {
			err = jerr
		}
	}
	if n := malformed.Load(); n > 0 {
		ph.fail("tuple_backlog: reader saw %d malformed task tuples", n)
	}
	return err
}

func (b *backlog) layers(lp *layerPass) error {
	b.tspaceMetrics(lp)
	lp.out["tspace.task_us"] = lp.tr.medianUS(spOp) / float64(b.burst)
	if err := probeCore(lp, b.vm); err != nil {
		return err
	}
	// resident depth = one burst, all under the workload's one key
	return probeTSpace(lp, b.vm, b.burst, func(int) core.Value { return "task" })
}
