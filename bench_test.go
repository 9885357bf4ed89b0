package sting

// Benchmarks regenerating the paper's evaluation with testing.B, one per
// table/figure row. Absolute numbers differ from the 1992 MIPS R3000; the
// orderings are the reproduction target (see EXPERIMENTS.md).
//
//	go test -bench=Fig6 -benchmem .        # the Figure 6 baseline table
//	go test -bench=Fig4 .                  # the Figure 4 stealing dynamics
//	go test -bench=Ablation .              # the §3.3/§4.x ablations
//	go test -bench="Sched(ForkJoin|Yield|Tuple)" .  # the scheduler core at 1/2/4/8 VPs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// benchEnv boots the paper's measurement configuration (1 VP, unified LIFO
// queue) and runs op inside a single STING thread with b.N iterations.
func benchEnv(b *testing.B, op func(ctx *core.Context, n int) error) {
	b.Helper()
	env, err := bench.NewEnv(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	b.ResetTimer()
	if err := env.Run(func(ctx *core.Context) error { return op(ctx, b.N) }); err != nil {
		b.Fatal(err)
	}
}

// Note: under testing.B's auto-scaling this row accumulates b.N delayed
// threads (genealogy and group membership keep them reachable), so at
// millions of iterations allocator/GC pressure inflates ns/op. The figure
// EXPERIMENTS.md quotes is at a bounded count: -benchtime 20000x.
func BenchmarkFig6ThreadCreation(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.ThreadCreation(ctx, n)
		return nil
	})
}

func BenchmarkFig6ThreadForkValue(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.ThreadForkValue(ctx, n)
		return nil
	})
}

func BenchmarkFig6SchedulingThread(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.SchedulingThread(ctx, n)
		return nil
	})
}

func BenchmarkFig6ContextSwitch(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.ContextSwitch(ctx, n)
		return nil
	})
}

func BenchmarkFig6Stealing(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.Stealing(ctx, n)
		return nil
	})
}

func BenchmarkFig6BlockResume(b *testing.B) {
	benchEnv(b, bench.BlockResume)
}

func BenchmarkFig6TupleSpace(b *testing.B) {
	benchEnv(b, bench.TupleSpaceOp)
}

func BenchmarkFig6SpeculativeFork(b *testing.B) {
	benchEnv(b, bench.SpeculativeFork)
}

func BenchmarkFig6Barrier(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.BarrierSync(ctx, n)
		return nil
	})
}

func BenchmarkFig6MutexUncontended(b *testing.B) {
	benchEnv(b, func(ctx *core.Context, n int) error {
		bench.MutexUncontended(ctx, n)
		return nil
	})
}

// Figure 4: one full primes run per iteration, per regime.

func benchFig4(b *testing.B, regime string, limit int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig4(regime, limit)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Steals), "steals")
		b.ReportMetric(float64(r.TCBAllocs), "tcb-allocs")
	}
}

func BenchmarkFig4StealDynamicsLIFO(b *testing.B)    { benchFig4(b, "lifo", 1000) }
func BenchmarkFig4StealDynamicsFIFO(b *testing.B)    { benchFig4(b, "fifo", 1000) }
func BenchmarkFig4StealDynamicsDelayed(b *testing.B) { benchFig4(b, "delayed", 1000) }

// §3.3 policy-by-workload ablation.

func benchPM(b *testing.B, policy, workload string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPMAblation(policy, workload, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFarmGlobalFIFO(b *testing.B) { benchPM(b, "global-fifo", "worker-farm") }
func BenchmarkAblationFarmLocalLIFO(b *testing.B)  { benchPM(b, "local-lifo", "worker-farm") }
func BenchmarkAblationTreeGlobalFIFO(b *testing.B) { benchPM(b, "global-fifo", "tree") }
func BenchmarkAblationTreeLocalLIFO(b *testing.B)  { benchPM(b, "local-lifo", "tree") }

// §4.2.2 preemption ablation.

func benchPreempt(b *testing.B, quantum time.Duration) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPreemptAblation(quantum, 20, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBarrierNoPreempt(b *testing.B) { benchPreempt(b, 0) }
func BenchmarkAblationBarrierPreempt50us(b *testing.B) {
	benchPreempt(b, 50*time.Microsecond)
}

// §4.1.1 stealing ablation.

func benchSteal(b *testing.B, stealing bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunStealAblation(stealing, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TCBAllocs), "tcb-allocs")
	}
}

func BenchmarkAblationStealingOn(b *testing.B)  { benchSteal(b, true) }
func BenchmarkAblationStealingOff(b *testing.B) { benchSteal(b, false) }

// §4.2 tuple-space lock-granularity ablation.

func benchTSBins(b *testing.B, bins int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTSLockAblation(bins, 4, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTSpaceGlobalLock(b *testing.B) { benchTSBins(b, 1) }
func BenchmarkAblationTSpacePerBinLock(b *testing.B) { benchTSBins(b, 64) }

// BenchmarkHashProbeDepth is the probe cost against resident depth: depth
// tuples under one key in a KindHash space, then a hit (TryGet of the oldest
// plus the Put that restores the depth) or a miss (TryGet of a value no
// tuple carries, which inspects the whole bin).
//
//	go test -run '^$' -bench HashProbeDepth -benchmem .
func BenchmarkHashProbeDepth(b *testing.B) {
	for _, depth := range []int{1, 64, 2048} {
		for _, mode := range []string{"hit", "miss"} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, mode), func(b *testing.B) {
				ts := tspace.New(tspace.KindHash, tspace.Config{})
				benchEnv(b, func(ctx *core.Context, n int) error {
					for i := 0; i < depth; i++ {
						if err := ts.Put(ctx, tspace.Tuple{"k", int64(i)}); err != nil {
							return err
						}
					}
					tpl := tspace.Template{"k", tspace.F("n")}
					if mode == "miss" {
						tpl = tspace.Template{"k", int64(-1)}
					}
					b.ResetTimer()
					for i := 0; i < n; i++ {
						_, bind, err := ts.TryGet(ctx, tpl)
						if mode == "miss" {
							if err != tspace.ErrNoMatch {
								return fmt.Errorf("miss probe: %v", err)
							}
							continue
						}
						if err != nil {
							return err
						}
						if err := ts.Put(ctx, tspace.Tuple{"k", bind["n"]}); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}

// BenchmarkSpecialization measures §4.2's representation-specialization
// claim: each pattern runs on the kind built for it and on the hash store,
// at one goroutine and at four, each goroutine on its own key or slots where
// the pattern has them. One op is a Put then a TryGet (a take then a put for
// the shared variable) with a nil context, on tuples built beforehand, so
// the figures are the spaces' own.
//
//	go test -run '^$' -bench Specialization -benchmem -count 10 .
func BenchmarkSpecialization(b *testing.B) {
	key := func(g int) string { return fmt.Sprintf("k%d", g) }
	for _, p := range []struct {
		name string
		kind tspace.Kind
		// op builds goroutine g's operation on ts; i counts its own ops.
		op func(b *testing.B, ts tspace.TupleSpace, g int) func(i int) error
	}{
		{"semaphore", tspace.KindSemaphore, func(_ *testing.B, ts tspace.TupleSpace, _ int) func(int) error {
			tup, tpl := tspace.Tuple{"tok"}, tspace.Template{"tok"}
			return func(int) error { return specPutTake(ts, tup, tpl) }
		}},
		{"shared-variable", tspace.KindSharedVar, func(b *testing.B, ts tspace.TupleSpace, g int) func(int) error {
			tup, tpl := tspace.Tuple{"v", int64(g)}, tspace.Template{"v", tspace.F("x")}
			if err := ts.Put(nil, tup); err != nil {
				b.Fatal(err)
			}
			return func(int) error {
				// Four goroutines share the one variable, so a take can miss.
				if _, _, err := ts.TryGet(nil, tpl); err != nil && err != tspace.ErrNoMatch {
					return err
				}
				return ts.Put(nil, tup)
			}
		}},
		{"vector64", tspace.KindVector, func(_ *testing.B, ts tspace.TupleSpace, g int) func(int) error {
			var tups []tspace.Tuple
			var tpls []tspace.Template
			for j := 16 * g; j < 16*(g+1); j++ { // a quarter of the 64 slots
				tups = append(tups, tspace.Tuple{j, int64(j)})
				tpls = append(tpls, tspace.Template{j, tspace.F("v")})
			}
			return func(i int) error { return specPutTake(ts, tups[i%16], tpls[i%16]) }
		}},
		{"queue32", tspace.KindQueue, func(b *testing.B, ts tspace.TupleSpace, g int) func(int) error {
			tup, tpl := tspace.Tuple{key(g), int64(g)}, tspace.Template{key(g), tspace.F("n")}
			for j := 0; j < 32; j++ {
				if err := ts.Put(nil, tup); err != nil {
					b.Fatal(err)
				}
			}
			return func(int) error { return specPutTake(ts, tup, tpl) }
		}},
		{"set", tspace.KindSet, func(_ *testing.B, ts tspace.TupleSpace, g int) func(int) error {
			tup, tpl := tspace.Tuple{key(g), int64(g)}, tspace.Template{key(g), tspace.F("x")}
			return func(int) error { return specPutTake(ts, tup, tpl) }
		}},
	} {
		for _, kind := range []tspace.Kind{p.kind, tspace.KindHash} {
			for _, goroutines := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%v/g=%d", p.name, kind, goroutines), func(b *testing.B) {
					ts := tspace.New(kind, tspace.Config{})
					ops := make([]func(int) error, goroutines)
					for g := range ops {
						ops[g] = p.op(b, ts, g)
					}
					errs := make(chan error, goroutines)
					b.ResetTimer()
					for g, op := range ops {
						go func() { // goroutine g runs every goroutines-th of the b.N ops
							var err error
							for i := g; i < b.N && err == nil; i += goroutines {
								err = op(i / goroutines)
							}
							errs <- err
						}()
					}
					for range ops {
						if err := <-errs; err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func specPutTake(ts tspace.TupleSpace, tup tspace.Tuple, tpl tspace.Template) error {
	if err := ts.Put(nil, tup); err != nil {
		return err
	}
	_, _, err := ts.TryGet(nil, tpl)
	return err
}

// Scheduler core: the three workloads that exercise the ready-queue
// machinery itself — fan-out from one VP's queue to idle siblings, yield
// re-enqueue on a deep queue, and tuple-space wakeups under keyed
// producer/consumer traffic — at 1, 2, 4 and 8 VPs on the machine's default
// policy manager, so the measured path is the stock scheduler. The roadmap's
// substrate exit criterion reads off these rows: Tuple/vps=4 ≤ 1.2 × vps=1.

func benchSched(b *testing.B, run func(b *testing.B, vps int)) {
	for _, vps := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("vps=%d", vps), func(b *testing.B) { run(b, vps) })
	}
}

// BenchmarkSchedForkJoin: one op is one small non-stealable thread forked
// onto the master's VP and joined. Each child yields once mid-work, so a run
// pays the re-enqueue path while the queue is thousands deep, and with more
// than one VP the join is dominated by how cheaply idle VPs drain the
// master's queue (migrations/op). Threads are forked 2000 to a round, every
// round on a machine of its own booted outside the timer: a determined
// thread stays in its group's table, and b.N of them on one VM would time
// the collector, not the scheduler.
func BenchmarkSchedForkJoin(b *testing.B) {
	benchSched(b, func(b *testing.B, vps int) {
		var migrations uint64
		for left := b.N; left > 0; left -= 2000 {
			b.StopTimer()
			testkit.RunFresh(b, vps, vps, func(vm *core.VM, ctx *core.Context) error {
				home := ctx.VP()
				set := make([]*core.Thread, min(left, 2000))
				b.StartTimer()
				for i := range set {
					set[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
						sink := 0
						for j := 0; j < 100; j++ {
							sink += j
						}
						c.Yield()
						for j := 0; j < 100; j++ {
							sink += j
						}
						return []core.Value{sink}, nil
					}, home, core.WithStealable(false))
				}
				ctx.BlockOnGroup(len(set), set)
				b.StopTimer()
				migrations += vm.Stats().VPs.Migrations
				return nil
			})
			b.StartTimer()
		}
		b.ReportMetric(float64(migrations)/float64(b.N), "migrations/op")
	})
}

// BenchmarkSchedYield: one op is one yield-processor by one of 64 resident
// peers, so every yield re-enqueues its caller on a queue ~64/vps deep —
// the re-enqueue path the scheduler pays on every context switch.
func BenchmarkSchedYield(b *testing.B) {
	const peers = 64
	benchSched(b, func(b *testing.B, vps int) {
		testkit.RunFresh(b, vps, vps, func(vm *core.VM, ctx *core.Context) error {
			set := make([]*core.Thread, peers)
			b.ResetTimer()
			for i := range set {
				set[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					for j := i; j < b.N; j += peers {
						c.Yield()
					}
					return nil, nil
				}, vm.VP(i%vps), core.WithStealable(false))
			}
			ctx.BlockOnGroup(len(set), set)
			return nil
		})
	})
}

// BenchmarkSchedTuple: one op is one keyed hand-off — producer p's Put of
// {p, i} and consumer p's Get of {p, ?v} — through one hashed space shared
// by four pairs. Keys never overlap, so a wakeup delivered to a waiter on
// another key is spurious, and every spurious wakeup is a re-park: blocks/op
// counts those on top of the parks of Gets that found their key empty.
func BenchmarkSchedTuple(b *testing.B) {
	const pairs = 4
	benchSched(b, func(b *testing.B, vps int) {
		ts := tspace.New(tspace.KindHash, tspace.Config{Bins: 16})
		testkit.RunFresh(b, vps, vps, func(vm *core.VM, ctx *core.Context) error {
			var all []*core.Thread
			b.ResetTimer()
			for p := 0; p < pairs; p++ {
				tag := int64(p)
				all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					for i := p; i < b.N; i += pairs {
						if err := ts.Put(c, tspace.Tuple{tag, int64(i)}); err != nil {
							return nil, err
						}
						if i/pairs%8 == 0 {
							c.Yield() // let consumers drain so waiters stay parked
						}
					}
					return nil, nil
				}, vm.VP((2*p)%vps), core.WithStealable(false)))
				all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					for i := p; i < b.N; i += pairs {
						if _, _, err := ts.Get(c, tspace.Template{tag, tspace.F("v")}); err != nil {
							return nil, err
						}
					}
					return nil, nil
				}, vm.VP((2*p+1)%vps), core.WithStealable(false)))
			}
			for _, t := range all {
				if _, err := ctx.Value(t); err != nil {
					return err
				}
			}
			b.ReportMetric(float64(vm.Stats().VPs.Blocks)/float64(b.N), "blocks/op")
			return nil
		})
	})
}

// Storage-model recycling ablation.

func benchRecycle(b *testing.B, on bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunRecycleAblation(on, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTCBRecyclingOn(b *testing.B)  { benchRecycle(b, true) }
func BenchmarkAblationTCBRecyclingOff(b *testing.B) { benchRecycle(b, false) }

// Mutex contention (supplementary §4.2.1).

func BenchmarkMutexContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.MutexContention(16, 4, 4, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// Application benchmarks (§5's companion-paper workloads, built from the
// paper's own example programs).

func BenchmarkAppSieve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, _, err := bench.AppSieve(4, 4, 500)
		if err != nil {
			b.Fatal(err)
		}
		if n != 95 {
			b.Fatalf("primes = %d", n)
		}
	}
}

func BenchmarkAppFarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppFarm(4, 4, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppSpeculative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppSpeculative(4, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppTreeSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppTreeSum(4, 4, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppTuplePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AppTuplePipeline(4, 3, 100); err != nil {
			b.Fatal(err)
		}
	}
}
