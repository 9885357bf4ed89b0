// Package bench holds the workloads behind every table and figure of the
// paper's evaluation; the root benchmark suite (bench_test.go) times them
// as testing.B rows and this package's own tests check the claims. Each
// workload is written against the public substrate operations so the
// measured path is what a user program pays.
package bench

import (
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// Env is a booted machine/VM pair the microbenchmarks run on.
type Env struct {
	M  *core.Machine
	VM *core.VM
}

// NewEnv boots a machine with the paper's measurement configuration: one
// VP per physical processor and a single unified LIFO ready queue
// ("timings were derived using a single LIFO queue").
func NewEnv(procs, vps int) (*Env, error) {
	m := core.NewMachine(core.MachineConfig{Processors: procs})
	vm, err := m.NewVM(core.VMConfig{
		Name:          "bench",
		VPs:           vps,
		PolicyFactory: policy.Unified(true),
	})
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	return &Env{M: m, VM: vm}, nil
}

// Close shuts the environment down.
func (e *Env) Close() { e.M.Shutdown() }

// Run executes body on a root STING thread and waits for it.
func (e *Env) Run(body func(ctx *core.Context) error) error {
	_, err := e.VM.Run(func(ctx *core.Context) ([]core.Value, error) {
		return nil, body(ctx)
	})
	return err
}

// nullThunk is the null procedure of the baseline table.
func nullThunk(*core.Context) ([]core.Value, error) { return nil, nil }

// ---------------------------------------------------------------------------
// Figure 6 rows. Each op runs n iterations inside one STING thread and is
// timed by the caller (testing.B).

// ThreadCreation measures creating a thread that is never scheduled and has
// no dynamic state (Fig. 6 row 1).
func ThreadCreation(ctx *core.Context, n int) {
	for i := 0; i < n; i++ {
		_ = ctx.CreateThread(nullThunk)
	}
}

// ThreadForkValue measures fork of a null thread plus demanding its value
// (Fig. 6 row 2). Stealing is disabled so the full schedule/dispatch/
// determine path is paid, as in the paper's measurement.
func ThreadForkValue(ctx *core.Context, n int) {
	for i := 0; i < n; i++ {
		t := ctx.Fork(nullThunk, nil, core.WithStealable(false))
		ctx.Wait(t)
	}
}

// SchedulingThread measures inserting a delayed thread into the current
// VP's ready queue (Fig. 6 row 3).
func SchedulingThread(ctx *core.Context, n int) {
	vp := ctx.VP()
	for i := 0; i < n; i++ {
		t := ctx.CreateThread(nullThunk)
		_ = core.ThreadRun(t, vp)
	}
}

// ContextSwitch measures yield-processor with the caller resumed
// immediately (Fig. 6 row 4).
func ContextSwitch(ctx *core.Context, n int) {
	for i := 0; i < n; i++ {
		ctx.Yield()
	}
}

// Stealing measures absorbing a delayed thread's thunk into the caller's
// TCB (Fig. 6 row 5; the thread creation is not part of the steal cost but
// is unavoidable per iteration, so the row reads net of ThreadCreation's).
func Stealing(ctx *core.Context, n int) {
	for i := 0; i < n; i++ {
		t := ctx.CreateThread(nullThunk)
		ctx.TrySteal(t)
	}
}

// BlockResume measures a block/wake pair of a null thread (Fig. 6 row 6):
// the target blocks itself, the driver wakes it, both on one VP.
func BlockResume(ctx *core.Context, n int) error {
	vp := ctx.VP()
	t := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
		for i := 0; i < n; i++ {
			c.BlockSelf("bench")
		}
		return nil, nil
	}, vp, core.WithStealable(false))
	for i := 0; i < n; i++ {
		// Busy-ish handshake: yield until the target parks, then wake it.
		for t.Exec() != core.ExecBlocked && !t.Determined() {
			ctx.Yield()
		}
		if t.Determined() {
			break
		}
		if err := core.ThreadRun(t, vp); err != nil {
			return err
		}
	}
	ctx.Wait(t)
	return nil
}

// TupleSpaceOp measures creating a tuple space, inserting a singleton
// tuple, and removing it (Fig. 6 row 7).
func TupleSpaceOp(ctx *core.Context, n int) error {
	for i := 0; i < n; i++ {
		ts := tspace.New(tspace.KindHash, tspace.Config{Bins: 16})
		if err := ts.Put(ctx, tspace.Tuple{int64(i)}); err != nil {
			return err
		}
		if _, _, err := ts.Get(ctx, tspace.Template{tspace.F("x")}); err != nil {
			return err
		}
	}
	return nil
}

// SpeculativeFork measures computing two null threads speculatively
// (Fig. 6 row 8): fork both, wait-for-one, terminate the loser.
func SpeculativeFork(ctx *core.Context, n int) error {
	for i := 0; i < n; i++ {
		a := ctx.Fork(nullThunk, nil, core.WithStealable(false))
		b := ctx.Fork(nullThunk, nil, core.WithStealable(false))
		if _, err := spec.WaitForOne(ctx, []*core.Thread{a, b}); err != nil {
			return err
		}
	}
	return nil
}

// BarrierSync measures a barrier synchronization point over two null
// threads (Fig. 6 row 9).
func BarrierSync(ctx *core.Context, n int) {
	for i := 0; i < n; i++ {
		a := ctx.Fork(nullThunk, nil, core.WithStealable(false))
		b := ctx.Fork(nullThunk, nil, core.WithStealable(false))
		spec.WaitForAll(ctx, []*core.Thread{a, b})
	}
}

// MutexUncontended measures an acquire/release pair (supplementary row).
func MutexUncontended(ctx *core.Context, n int) {
	m := synch.NewMutex(16, 4)
	for i := 0; i < n; i++ {
		m.Acquire(ctx)
		m.Release()
	}
}
