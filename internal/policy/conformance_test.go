package policy

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
)

// managers is the conformance table: every shipped manager, the
// work-stealing ones in each of their settings. A shared-queue factory
// shares its queue among all the VPs it builds, so each case builds a fresh
// factory per VM. A nil Factory selects the substrate's default.
var managers = []struct {
	name string
	mk   func() Factory
}{
	{"default", func() Factory { return nil }},
	{"GlobalFIFO", GlobalFIFO},
	{"RoundRobin", func() Factory { return RoundRobin(200 * time.Microsecond) }},
	{"Priority", Priority},
	{"Realtime", Realtime},
	{"LocalLIFO", func() Factory { return LocalLIFO(LocalLIFOConfig{}) }},
	{"LocalLIFO-migrate", func() Factory { return LocalLIFO(LocalLIFOConfig{Migrate: true}) }},
	{"LocalFIFO", func() Factory { return LocalLIFO(LocalLIFOConfig{FIFO: true}) }},
	{"LocalFIFO-migrate", func() Factory { return LocalLIFO(LocalLIFOConfig{Migrate: true, FIFO: true}) }},
	{"Unified-lifo", func() Factory { return Unified(true) }},
	{"Unified-fifo", func() Factory { return Unified(false) }},
}

// TestConformance runs every manager through the substrate's contract.
func TestConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, f Factory)
	}{
		{"exactly_once", conformExactlyOnce},
		{"pinned_stays", conformPinned},
		{"block_on_group", conformBlockOnGroup},
		{"park_handoff", func(t *testing.T, f Factory) { testkit.ParkHandoff(t, f) }},
		{"len", conformLen},
		{"retention", conformRetention},
	}
	for _, m := range managers {
		t.Run(m.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) { row.run(t, m.mk()) })
			}
		})
	}
}

// conformExactlyOnce: every forked thread runs exactly once under a seeded
// mix of yield, SetPriority, SetQuantum (with preemption), block/wake and
// fork-and-wait (which may steal the child's thunk).
func conformExactlyOnce(t *testing.T, f Factory) {
	const n, seed = 200, 1
	vm := vmWithPolicy(t, 2, 4, f)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]int, n)
	runs := make([]atomic.Int32, 2*n) // [0,n): the forked threads; [n,2n): their children
	parked := make([]atomic.Pointer[core.TCB], n)
	var gate atomic.Bool
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		threads := make([]*core.Thread, n)
		for i := range threads {
			i, arg := i, rng.Intn(10)
			ops[i] = rng.Intn(5)
			threads[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				runs[i].Add(1)
				switch ops[i] {
				case 0:
					for j := 0; j <= arg%3; j++ {
						c.Yield()
					}
				case 1:
					c.SetPriority(arg - 5)
					c.Yield()
				case 2:
					c.SetQuantum(time.Duration(50+50*arg) * time.Microsecond)
					for j := 0; j < 100; j++ {
						c.Poll()
					}
				case 3:
					parked[i].Store(c.TCB())
					c.BlockUntil(gate.Load)
				case 4:
					kid := c.Fork(func(*core.Context) ([]core.Value, error) {
						runs[n+i].Add(1)
						return nil, nil
					}, nil)
					c.Wait(kid)
				}
				return nil, nil
			}, vm.VP(i))
		}
		gate.Store(true)
		for i := range parked {
			if tcb := parked[i].Load(); tcb != nil {
				core.WakeTCB(tcb)
			}
		}
		ctx.BlockOnGroup(n, threads)
		return nil
	})
	for i := 0; i < n; i++ {
		kids := int32(0)
		if ops[i] == 4 {
			kids = 1
		}
		if got := runs[i].Load(); got != 1 {
			t.Errorf("seed %d: thread %d (op %d) ran %d times", seed, i, ops[i], got)
		}
		if got := runs[n+i].Load(); got != kids {
			t.Errorf("seed %d: child of thread %d ran %d times, want %d", seed, i, got, kids)
		}
	}
}

// conformPinned: a pinned thread queued on VP 0 runs there, before and
// after a yield, while VP 1 idles and eight migratable decoys share its
// queue.
func conformPinned(t *testing.T, f Factory) {
	vm := vmWithPolicy(t, 2, 2, f)
	var before, after atomic.Int64
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		pinned := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			before.Store(int64(c.VP().Index()))
			c.Yield()
			after.Store(int64(c.VP().Index()))
			return nil, nil
		}, vm.VP(0), core.WithStealable(false), core.WithPinned())
		decoys := make([]*core.Thread, 8)
		for i := range decoys {
			decoys[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for j := 0; j < 10; j++ {
					c.Poll()
				}
				return nil, nil
			}, vm.VP(0), core.WithStealable(false))
		}
		ctx.Wait(pinned)
		ctx.BlockOnGroup(len(decoys), decoys)
		return nil
	})
	if b, a := before.Load(), after.Load(); b != 0 || a != 0 {
		t.Errorf("pinned thread ran on vp %d, then vp %d after a yield; want 0, 0", b, a)
	}
}

// conformBlockOnGroup: BlockOnGroup(k) returns once k of the threads are
// determined, and not before. Three threads finish at once; five park on a
// gate. Three more waiters block on the same set, and an opener raises the
// gate only once all three are parked, so each gated thread carries every
// waiter's barrier: every waiter must wake and see all n determined.
func conformBlockOnGroup(t *testing.T, f Factory) {
	const n, quick = 8, 3
	vm := vmWithPolicy(t, 2, 4, f)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var gate atomic.Bool
		parked := make([]atomic.Pointer[core.TCB], n)
		threads := make([]*core.Thread, n)
		for i := range threads {
			i := i
			threads[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				if i >= quick {
					parked[i].Store(c.TCB())
					c.BlockUntil(gate.Load)
				}
				return nil, nil
			}, vm.VP(i), core.WithStealable(false))
		}
		determined := func() int {
			d := 0
			for _, th := range threads {
				if th.Determined() {
					d++
				}
			}
			return d
		}
		ctx.BlockOnGroup(quick, threads)
		if d := determined(); d != quick {
			t.Errorf("after BlockOnGroup(%d) with the gate shut: %d determined", quick, d)
		}
		seen := make([]atomic.Int32, 3)
		waiters := make([]*core.Thread, len(seen))
		for j := range waiters {
			j := j
			waiters[j] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				c.BlockOnGroup(n, threads)
				seen[j].Store(int32(determined()))
				return nil, nil
			}, vm.VP(j), core.WithStealable(false))
		}
		// The opener is a goroutine, so its polling needs nothing from the
		// policy under test. It opens the gate only once every waiter is
		// parked in BlockOnGroup, which registers its barriers before it
		// parks: each gated thread then carries all three waiters' barriers.
		opened := make(chan struct{})
		go func() {
			defer close(opened)
			for _, w := range waiters {
				for w.Exec() != core.ExecBlocked {
					runtime.Gosched()
				}
			}
			gate.Store(true)
			for i := range parked {
				if tcb := parked[i].Load(); tcb != nil {
					core.WakeTCB(tcb)
				}
			}
		}()
		ctx.BlockOnGroup(quick+1, threads)
		if !gate.Load() || determined() < quick+1 {
			t.Errorf("BlockOnGroup(%d) returned early: gate %v, %d determined", quick+1, gate.Load(), determined())
		}
		ctx.BlockOnGroup(n, threads)
		if d := determined(); d != n {
			t.Errorf("after BlockOnGroup(%d): %d determined", n, d)
		}
		ctx.BlockOnGroup(len(waiters), waiters)
		for j := range seen {
			if d := seen[j].Load(); d != n {
				t.Errorf("waiter %d woke seeing %d determined, want %d", j, d, n)
			}
		}
		<-opened
		return nil
	})
}

// conformLen: the manager reports its run-queue depth (what
// sting_vp_runq_depth exports).
func conformLen(t *testing.T, f Factory) {
	vm := vmWithPolicy(t, 1, 1, f)
	pm, ok := vm.VP(0).PM().(interface{ Len() int })
	if !ok {
		t.Fatalf("%T has no Len", vm.VP(0).PM())
	}
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var threads []*core.Thread
		ctx.WithoutPreemption(func() {
			_, threads = spawnOrderProbe(ctx, vm, 3)
			if n := pm.Len(); n != 3 {
				t.Errorf("Len = %d with three threads queued", n)
			}
		})
		ctx.BlockOnGroup(len(threads), threads)
		if n := pm.Len(); n != 0 {
			t.Errorf("Len = %d after every thread ran", n)
		}
		return nil
	})
}

// conformRetention: a determined thread is unreachable from its manager.
// 2,000 root threads set priority and quantum hints and finish; with no
// reset, all but a few must be collectable once joined. The allowance
// is one TCB cache's worth (64) for whatever a VP still holds at the moment
// of the GC.
func conformRetention(t *testing.T, f Factory) {
	const n, bound = 2000, 64
	vm := vmWithPolicy(t, 2, 2, f)
	var freed atomic.Int64
	threads := make([]*core.Thread, n)
	for i := range threads {
		i := i
		threads[i] = vm.Spawn(func(c *core.Context) ([]core.Value, error) {
			c.SetPriority(i % 8)
			c.SetQuantum(time.Millisecond)
			return nil, nil
		})
		runtime.SetFinalizer(threads[i], func(*core.Thread) { freed.Add(1) })
	}
	for _, th := range threads {
		if _, err := core.JoinThread(th); err != nil {
			t.Fatalf("JoinThread: %v", err)
		}
	}
	clear(threads)
	deadline := time.Now().Add(5 * time.Second)
	held := int64(n)
	for i := 0; i < 3 || held >= bound && time.Now().Before(deadline); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		held = n - freed.Load()
	}
	runtime.KeepAlive(vm)
	t.Logf("%d of %d determined root threads still reachable", held, n)
	if held >= bound {
		t.Errorf("%d of %d determined root threads still reachable, want < %d", held, n, bound)
	}
}
