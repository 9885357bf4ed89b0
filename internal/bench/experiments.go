package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/futures"
	"repro/internal/policy"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// ---------------------------------------------------------------------------
// Figure 4: dynamics of thread stealing in the futures primes program.

// Fig4Result captures the scheduling behaviour of one primes run.
type Fig4Result struct {
	Policy    string
	Limit     int
	NPrimes   int
	Threads   uint64
	Steals    uint64
	TCBAllocs uint64
	Blocks    uint64
	Elapsed   time.Duration
}

// primesFutures is the Fig. 3 program; delayed selects create-thread
// futures (pure stealing) instead of fork-thread futures.
func primesFutures(ctx *core.Context, limit int, delayed bool) (int, error) {
	mk := func(f futures.Thunk) *futures.Future {
		if delayed {
			return futures.Delay(ctx, f)
		}
		return futures.Spawn(ctx, f)
	}
	ps := mk(func(*core.Context) (core.Value, error) { return []int{2}, nil })
	for i := 3; i <= limit; i += 2 {
		i := i
		prev := ps
		ps = mk(func(c *core.Context) (core.Value, error) {
			v, err := prev.Touch(c)
			if err != nil {
				return nil, err
			}
			lst := v.([]int)
			for _, p := range lst {
				if p*p > i {
					break
				}
				if i%p == 0 {
					return lst, nil
				}
			}
			return append(append([]int(nil), lst...), i), nil
		})
	}
	if !delayed {
		ctx.Yield() // hand the VP to the policy manager's queue
	}
	v, err := ps.Touch(ctx)
	if err != nil {
		return 0, err
	}
	return len(v.([]int)), nil
}

// RunFig4 runs the primes program under the named regime: "lifo", "fifo"
// (eager futures dispatched in that order) or "delayed" (lazy futures).
func RunFig4(regime string, limit int) (Fig4Result, error) {
	lifo := regime != "fifo"
	delayed := regime == "delayed"
	m := core.NewMachine(core.MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{
		VPs:           1,
		PolicyFactory: policy.Unified(lifo),
	})
	if err != nil {
		return Fig4Result{}, err
	}
	start := time.Now()
	nprimes := 0
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		n, err := primesFutures(ctx, limit, delayed)
		nprimes = n
		return nil, err
	})
	if err != nil {
		return Fig4Result{}, err
	}
	s := vm.Stats()
	return Fig4Result{
		Policy:    regime,
		Limit:     limit,
		NPrimes:   nprimes,
		Threads:   s.ThreadsCreated,
		Steals:    s.Steals,
		TCBAllocs: s.VPs.TCBMisses,
		Blocks:    s.VPs.Blocks,
		Elapsed:   time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------------
// §3.3 ablation: queue locality/serialization regimes under two workloads.

// PMAblationResult is one (policy, workload) cell.
type PMAblationResult struct {
	Policy   string
	Workload string
	Elapsed  time.Duration
	Blocks   uint64
	Migrated uint64
}

// workerFarm: a master and long-lived workers over a tuple space — the
// workload the paper says suits a global queue.
func workerFarm(ctx *core.Context, vm *core.VM, tasks, workers int) error {
	ts := tspace.New(tspace.KindQueue, tspace.Config{})
	pool := make([]*core.Thread, workers)
	for w := range pool {
		pool[w] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			for {
				_, bind, err := ts.Get(c, tspace.Template{"task", tspace.F("n")})
				if err != nil {
					return nil, err
				}
				n := int(bind["n"].(int64))
				if n < 0 {
					return nil, nil
				}
				sink := 0
				for i := 0; i < 2000; i++ {
					sink += i * n
				}
				_ = sink
				c.Poll()
			}
		}, vm.VP(w), core.WithStealable(false))
	}
	for i := 0; i < tasks; i++ {
		if err := ts.Put(ctx, tspace.Tuple{"task", int64(i)}); err != nil {
			return err
		}
	}
	for range pool {
		if err := ts.Put(ctx, tspace.Tuple{"task", int64(-1)}); err != nil {
			return err
		}
	}
	for _, t := range pool {
		ctx.Wait(t)
	}
	return nil
}

// treeSpawn: a binary fork tree — the result-parallel workload the paper
// says suits local LIFO queues.
func treeSpawn(ctx *core.Context, depth int) error {
	var grow func(c *core.Context, d int) ([]core.Value, error)
	grow = func(c *core.Context, d int) ([]core.Value, error) {
		if d == 0 {
			return []core.Value{1}, nil
		}
		l := c.Fork(func(cc *core.Context) ([]core.Value, error) { return grow(cc, d-1) }, nil)
		r := c.Fork(func(cc *core.Context) ([]core.Value, error) { return grow(cc, d-1) }, nil)
		lv, err := c.Value1(l)
		if err != nil {
			return nil, err
		}
		rv, err := c.Value1(r)
		if err != nil {
			return nil, err
		}
		return []core.Value{lv.(int) + rv.(int)}, nil
	}
	_, err := grow(ctx, depth)
	return err
}

// RunPMAblation times one policy on one workload.
func RunPMAblation(policyName, workload string, procs, vps int) (PMAblationResult, error) {
	var factory policy.Factory
	switch policyName {
	case "global-fifo":
		factory = policy.GlobalFIFO()
	case "local-lifo":
		factory = policy.LocalLIFO(policy.LocalLIFOConfig{Migrate: true})
	case "local-lifo-nomigrate":
		factory = policy.LocalLIFO(policy.LocalLIFOConfig{})
	case "unified-lifo":
		factory = policy.Unified(true)
	default:
		factory = policy.Unified(true)
	}
	m := core.NewMachine(core.MachineConfig{Processors: procs})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{VPs: vps, PolicyFactory: factory})
	if err != nil {
		return PMAblationResult{}, err
	}
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		switch workload {
		case "worker-farm":
			return nil, workerFarm(ctx, vm, 300, vps)
		default:
			return nil, treeSpawn(ctx, 9)
		}
	})
	if err != nil {
		return PMAblationResult{}, err
	}
	s := vm.Stats()
	return PMAblationResult{
		Policy:   policyName,
		Workload: workload,
		Elapsed:  time.Since(start),
		Blocks:   s.VPs.Blocks,
		Migrated: s.VPs.Migrations,
	}, nil
}

// ---------------------------------------------------------------------------
// §4.2.2 ablation: preemption vs barrier-round master/slave (Tucker&Gupta).

// PreemptResult is one preemption-regime measurement.
type PreemptResult struct {
	Quantum     time.Duration
	Rounds      int
	Elapsed     time.Duration
	Preemptions uint64
}

// RunPreemptAblation runs master/slave rounds with barrier synchronization
// between rounds. Each round's work is small relative to the program, so —
// per the paper — enabling preemption only adds disturbance.
func RunPreemptAblation(quantum time.Duration, rounds, workers int) (PreemptResult, error) {
	m := core.NewMachine(core.MachineConfig{Processors: 2})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{
		VPs: 2,
		VP:  core.VPConfig{DefaultQuantum: quantum},
	})
	if err != nil {
		return PreemptResult{}, err
	}
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		for r := 0; r < rounds; r++ {
			set := make([]*core.Thread, workers)
			for w := range set {
				set[w] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					sink := 0
					for i := 0; i < 3000; i++ {
						sink += i
						if i%64 == 0 {
							c.Poll()
						}
					}
					return []core.Value{sink}, nil
				}, vm.VP(w), core.WithStealable(false))
			}
			ctx.BlockOnGroup(len(set), set)
		}
		return nil, nil
	})
	if err != nil {
		return PreemptResult{}, err
	}
	s := vm.Stats()
	return PreemptResult{
		Quantum:     quantum,
		Rounds:      rounds,
		Elapsed:     time.Since(start),
		Preemptions: s.VPs.Preemptions,
	}, nil
}

// ---------------------------------------------------------------------------
// §4.1.1 ablation: stealing on/off for the futures primes program.

// StealAblationResult compares the two regimes.
type StealAblationResult struct {
	Stealing  bool
	Limit     int
	Elapsed   time.Duration
	Steals    uint64
	TCBAllocs uint64
	Blocks    uint64
}

// RunStealAblation runs delayed-futures primes with stealing permitted or
// forbidden (forbidden futures are scheduled on demand instead).
func RunStealAblation(stealing bool, limit int) (StealAblationResult, error) {
	m := core.NewMachine(core.MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{VPs: 1})
	if err != nil {
		return StealAblationResult{}, err
	}
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		mk := func(f futures.Thunk) *futures.Future {
			fu := futures.Delay(ctx, f)
			fu.SetStealable(stealing)
			return fu
		}
		ps := mk(func(*core.Context) (core.Value, error) { return []int{2}, nil })
		for i := 3; i <= limit; i += 2 {
			i := i
			prev := ps
			ps = mk(func(c *core.Context) (core.Value, error) {
				v, err := prev.Touch(c)
				if err != nil {
					return nil, err
				}
				lst := v.([]int)
				for _, p := range lst {
					if p*p > i {
						break
					}
					if i%p == 0 {
						return lst, nil
					}
				}
				return append(append([]int(nil), lst...), i), nil
			})
		}
		_, err = ps.Touch(ctx)
		return nil, err
	})
	if err != nil {
		return StealAblationResult{}, err
	}
	s := vm.Stats()
	return StealAblationResult{
		Stealing:  stealing,
		Limit:     limit,
		Elapsed:   time.Since(start),
		Steals:    s.Steals,
		TCBAllocs: s.VPs.TCBMisses,
		Blocks:    s.VPs.Blocks,
	}, nil
}

// ---------------------------------------------------------------------------
// §4.2 ablation: per-bin vs whole-table tuple-space locking.

// TSLockResult is one bins configuration measurement.
type TSLockResult struct {
	Bins    int
	Ops     int
	Elapsed time.Duration
	PerOpNs float64
}

// RunTSLockAblation hammers one tuple space from several producer/consumer
// pairs; Bins=1 reproduces the global-mutex baseline the paper argues
// against.
func RunTSLockAblation(bins, pairs, opsPerPair int) (TSLockResult, error) {
	m := core.NewMachine(core.MachineConfig{Processors: 4})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{VPs: pairs * 2})
	if err != nil {
		return TSLockResult{}, err
	}
	ts := tspace.New(tspace.KindHash, tspace.Config{Bins: bins})
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		var all []*core.Thread
		for p := 0; p < pairs; p++ {
			tag := int64(p)
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := 0; i < opsPerPair; i++ {
					if err := ts.Put(c, tspace.Tuple{tag, int64(i)}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(2*p), core.WithStealable(false)))
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := 0; i < opsPerPair; i++ {
					if _, _, err := ts.Get(c, tspace.Template{tag, tspace.F("v")}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(2*p+1), core.WithStealable(false)))
		}
		for _, t := range all {
			ctx.Wait(t)
		}
		return nil, nil
	})
	if err != nil {
		return TSLockResult{}, err
	}
	elapsed := time.Since(start)
	ops := pairs * opsPerPair * 2
	return TSLockResult{
		Bins:    bins,
		Ops:     ops,
		Elapsed: elapsed,
		PerOpNs: float64(elapsed.Nanoseconds()) / float64(ops),
	}, nil
}

// ---------------------------------------------------------------------------
// Storage-model ablation: TCB recycling on/off.

// RecycleResult is one recycling regime measurement.
type RecycleResult struct {
	Recycling bool
	Threads   int
	Elapsed   time.Duration
	TCBHits   uint64
	TCBMisses uint64
}

// RunRecycleAblation forks-and-joins many null threads with the VP TCB
// cache enabled or disabled.
func RunRecycleAblation(recycling bool, threads int) (RecycleResult, error) {
	m := core.NewMachine(core.MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{
		VPs: 1,
		VP:  core.VPConfig{DisableTCBRecycling: !recycling},
	})
	if err != nil {
		return RecycleResult{}, err
	}
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		for i := 0; i < threads; i++ {
			t := ctx.Fork(nullThunk, nil, core.WithStealable(false))
			ctx.Wait(t)
		}
		return nil, nil
	})
	if err != nil {
		return RecycleResult{}, err
	}
	s := vm.Stats()
	return RecycleResult{
		Recycling: recycling,
		Threads:   threads,
		Elapsed:   time.Since(start),
		TCBHits:   s.VPs.TCBHits,
		TCBMisses: s.VPs.TCBMisses,
	}, nil
}

// MutexContention measures acquire/release under contention for the given
// spin configuration (supplementary to §4.2.1).
func MutexContention(active, passive, workers, iters int) (time.Duration, error) {
	m := core.NewMachine(core.MachineConfig{Processors: 4})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{VPs: workers})
	if err != nil {
		return 0, err
	}
	mu := synch.NewMutex(active, passive)
	start := time.Now()
	_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		kids := make([]*core.Thread, workers)
		for w := range kids {
			kids[w] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := 0; i < iters; i++ {
					mu.Acquire(c)
					mu.Release()
				}
				return nil, nil
			}, vm.VP(w), core.WithStealable(false))
		}
		for _, k := range kids {
			ctx.Wait(k)
		}
		return nil, nil
	})
	return time.Since(start), err
}
