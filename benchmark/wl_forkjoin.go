package main

import (
	"fmt"

	"repro/internal/core"
)

// forkjoin: the Go API on one VM, VPs = nproc; no tuple space, no Scheme, no
// wire. One op is one round: the root thread forks roundThunks non-blocking
// thunks (every other one stealable, ~200 adds each), joins them with
// BlockOnGroup and sums their values. core/policy do almost all the work:
// create, enqueue, steal, TCB recycle, join.
type forkjoin struct {
	m      *core.Machine
	vm     *core.VM
	values []int64 // seeded: thunk i returns values[i] + spinSum
	want   int64
}

const (
	roundThunks = 256
	spinAdds    = 200
	spinSum     = spinAdds * (spinAdds - 1) / 2
)

func setupForkjoin(e *env) (instance, error) {
	f := &forkjoin{values: make([]int64, e.pick(roundThunks, 32))}
	for i := range f.values {
		f.values[i] = e.rng.Int63n(1 << 20)
		f.want += f.values[i] + spinSum
	}
	f.m = core.NewMachine(core.MachineConfig{Processors: e.nproc})
	vm, err := f.m.NewVM(core.VMConfig{Name: "forkjoin", VPs: e.nproc})
	if err != nil {
		f.m.Shutdown()
		return nil, err
	}
	f.vm = vm
	return f, nil
}

func (f *forkjoin) shape() (int, int) { return 1, 1 }

func (f *forkjoin) run(ph *phase) error {
	rec, tr := ph.recs[0], ph.tr
	set := make([]*core.Thread, len(f.values))
	// The substrate keeps a record of every determined thread in its group
	// and in its parent's child list, for genealogy queries. A long-lived
	// root thread forking round after round would retain them all, so each
	// round runs under its own root thread, forks into an explicit group, and
	// resets that group and the VM's root group when it has joined.
	group := core.NewGroup("forkjoin-round", nil)
	for op := int64(0); ph.live(); op++ {
		t0 := now()
		sOp := tr.begin(spOp, noSpan, op, 0)
		var sum int64
		_, err := f.vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			home := ctx.VP()
			s := tr.begin(spFork, sOp, op, 0)
			for i, v := range f.values {
				v := v
				set[i] = ctx.Fork(func(*core.Context) ([]core.Value, error) {
					sink := v
					for j := int64(0); j < spinAdds; j++ {
						sink += j
					}
					return []core.Value{sink}, nil
				}, home, core.WithStealable(i%2 == 0), core.WithGroup(group))
			}
			tr.end(s)
			s = tr.begin(spJoinWait, sOp, op, 0)
			ctx.BlockOnGroup(len(set), set)
			tr.end(s)
			s = tr.begin(spCollect, sOp, op, 0)
			defer tr.end(s)
			for _, t := range set {
				v, err := ctx.Value1(t)
				if err != nil {
					return nil, err
				}
				sum += v.(int64)
			}
			return nil, nil
		}, core.WithName("forkjoin-root"))
		if !ph.untidied {
			group.Reset()
			resetGroups(f.vm.RootGroup())
		}
		tr.end(sOp)
		if err != nil {
			return err
		}
		if sum != f.want {
			ph.fail("forkjoin round %d: sum of thunk values %d, want %d", op, sum, f.want)
			return nil
		}
		rec.add(t0)
	}
	return nil
}

func (f *forkjoin) counters() metrics { return vmCounters(f.vm) }

// vmCounters flattens a VM's scheduler counters.
func vmCounters(vm *core.VM) metrics {
	s := vm.Stats()
	return metrics{
		"dispatches":    float64(s.VPs.Dispatches),
		"switches":      float64(s.VPs.Switches),
		"preemptions":   float64(s.VPs.Preemptions),
		"blocks":        float64(s.VPs.Blocks),
		"steals":        float64(s.VPs.Steals),
		"idles":         float64(s.VPs.Idles),
		"tcb_hits":      float64(s.VPs.TCBHits),
		"tcb_misses":    float64(s.VPs.TCBMisses),
		"migrations":    float64(s.VPs.Migrations),
		"steal_batches": float64(s.VPs.StealBatches),
		"failed_steals": float64(s.VPs.FailedSteals),
	}
}

// coreCounterMetrics fills the core.*_per_op family from VM counter deltas.
func coreCounterMetrics(lp *layerPass) {
	lp.out["core.dispatches_per_op"] = lp.perOp("dispatches")
	lp.out["core.migrations_per_op"] = lp.perOp("migrations")
	lp.out["core.steal_batches_per_op"] = lp.perOp("steal_batches")
	lp.out["core.failed_steals_per_op"] = lp.perOp("failed_steals")
	lp.out["core.steals_per_op"] = lp.perOp("steals")
	lp.out["core.idles_per_op"] = lp.perOp("idles")
	lp.out["core.preemptions_per_op"] = lp.perOp("preemptions")
	lp.out["core.blocks_per_op"] = lp.perOp("blocks")
	if n := lp.delta["tcb_hits"] + lp.delta["tcb_misses"]; n > 0 {
		lp.out["core.tcb_hit_ratio"] = lp.delta["tcb_hits"] / n
	}
}

func (f *forkjoin) layers(lp *layerPass) error {
	n := float64(len(f.values))
	lp.out["core.thread_us"] = lp.tr.medianUS(spOp) / n
	lp.out["core.fork_ns"] = lp.tr.medianUS(spFork) * 1e3 / n
	lp.out["core.join_wait_us"] = lp.tr.medianUS(spJoinWait)
	coreCounterMetrics(lp)
	return probeCore(lp, f.vm)
}

func (f *forkjoin) close() error {
	live := liveThreads(f.vm)
	f.m.Shutdown()
	if live != 0 {
		return fmt.Errorf("forkjoin: %d threads still live at shutdown", live)
	}
	return nil
}
