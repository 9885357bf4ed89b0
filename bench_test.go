package sting

// Benchmarks regenerating the paper's evaluation with testing.B, one per
// table/figure row. Absolute numbers differ from the 1992 MIPS R3000; the
// orderings are the reproduction target (see EXPERIMENTS.md).
//
//	go test -bench=Fig6 -benchmem .        # the Figure 6 baseline table
//	go test -bench=Fig4 .                  # the Figure 4 stealing dynamics
//	go test -bench=Ablation .              # the §3.3/§4.x ablations

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
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
// millions of iterations allocator/GC pressure inflates ns/op relative to
// the cmd/stingbench harness, which measures the paper's configuration at
// a bounded iteration count. The stingbench figure is the reference.
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
