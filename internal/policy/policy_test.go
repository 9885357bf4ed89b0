package policy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/testkit"
)

// vmWithPolicy boots a 1-proc/1-VP VM under the given factory, where
// scheduling order is deterministic.
func vmWithPolicy(t *testing.T, procs, vps int, f Factory) *core.VM {
	t.Helper()
	return testkit.VMWith(t, procs, core.VMConfig{
		VPs:           vps,
		PolicyFactory: f,
	})
}

// spawnOrderProbe forks n no-op threads that record their execution order.
func spawnOrderProbe(ctx *core.Context, vm *core.VM, n int) (*[]int, []*core.Thread) {
	order := &[]int{}
	var mu sync.Mutex
	threads := make([]*core.Thread, n)
	for i := 0; i < n; i++ {
		i := i
		threads[i] = ctx.Fork(func(*core.Context) ([]core.Value, error) {
			mu.Lock()
			*order = append(*order, i)
			mu.Unlock()
			return nil, nil
		}, vm.VP(0), core.WithStealable(false))
	}
	return order, threads
}

func TestGlobalFIFOOrder(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, GlobalFIFO())
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		order, threads := spawnOrderProbe(ctx, vm, 8)
		for _, th := range threads {
			ctx.Wait(th)
		}
		for i, got := range *order {
			if got != i {
				t.Fatalf("order %v not FIFO", *order)
			}
		}
		return nil
	})
}

func TestLocalLIFOOrder(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, LocalLIFO(LocalLIFOConfig{}))
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		order, threads := spawnOrderProbe(ctx, vm, 8)
		for _, th := range threads {
			ctx.Wait(th)
		}
		n := len(*order)
		for i, got := range *order {
			if got != n-1-i {
				t.Fatalf("order %v not LIFO", *order)
			}
		}
		return nil
	})
}

func TestLocalFIFOVariant(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, LocalLIFO(LocalLIFOConfig{FIFO: true}))
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		order, threads := spawnOrderProbe(ctx, vm, 8)
		for _, th := range threads {
			ctx.Wait(th)
		}
		for i, got := range *order {
			if got != i {
				t.Fatalf("order %v not FIFO", *order)
			}
		}
		return nil
	})
}

func TestPriorityOrder(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, Priority())
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var mu sync.Mutex
		var order []int
		prios := []int{1, 5, 3, 9, 7}
		threads := make([]*core.Thread, len(prios))
		for i, p := range prios {
			p := p
			threads[i] = ctx.Fork(func(*core.Context) ([]core.Value, error) {
				mu.Lock()
				order = append(order, p)
				mu.Unlock()
				return nil, nil
			}, vm.VP(0), core.WithPriority(p), core.WithStealable(false))
		}
		for _, th := range threads {
			ctx.Wait(th)
		}
		want := []int{9, 7, 5, 3, 1}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order %v, want %v", order, want)
			}
		}
		return nil
	})
}

func TestRealtimeEDF(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, Realtime())
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var mu sync.Mutex
		var order []int
		now := time.Now()
		deadlines := []time.Duration{50 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond}
		threads := make([]*core.Thread, len(deadlines))
		for i, d := range deadlines {
			i := i
			env := WithDeadline(ctx.FluidEnvSnapshot(), now.Add(d))
			threads[i] = ctx.Fork(func(*core.Context) ([]core.Value, error) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil, nil
			}, vm.VP(0), core.WithFluid(env), core.WithStealable(false))
		}
		for _, th := range threads {
			ctx.Wait(th)
		}
		want := []int{1, 2, 0} // earliest deadline first
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order %v, want %v", order, want)
			}
		}
		return nil
	})
}

func TestMigrationBalancesLoad(t *testing.T) {
	vm := vmWithPolicy(t, 4, 4, LocalLIFO(LocalLIFOConfig{Migrate: true}))
	const n = 64
	migrations := func() uint64 {
		var m uint64
		for _, vp := range vm.VPs() {
			m += vp.Stats().Migrations.Load()
		}
		return m
	}
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		// Pile everything on VP 0; idle VPs must migrate threads over. Each
		// thread holds its VP until some migration has happened (or 10 s
		// pass), so the load outlasts the siblings' idle scans.
		deadline := time.Now().Add(10 * time.Second)
		threads := make([]*core.Thread, n)
		for i := range threads {
			threads[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for migrations() == 0 && time.Now().Before(deadline) {
					c.Poll()
				}
				return nil, nil
			}, vm.VP(0), core.WithStealable(false))
		}
		ctx.BlockOnGroup(n, threads)
		return nil
	})
	if migrations() == 0 {
		t.Fatal("no migrations despite one-sided load")
	}
}

func TestRoundRobinPreemptsLongRunners(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, RoundRobin(200*time.Microsecond))
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		// Two compute-bound workers on one VP: without preemption the
		// first would finish before the second starts; with round-robin
		// quanta they interleave.
		var mu sync.Mutex
		var trace []int
		mark := func(id int) {
			mu.Lock()
			if n := len(trace); n == 0 || trace[n-1] != id {
				trace = append(trace, id)
			}
			mu.Unlock()
		}
		// Each worker runs until the trace shows two switches (or 10 s
		// pass), so the load outlasts a quantum however late a loaded host
		// fires the preemption timer.
		deadline := time.Now().Add(10 * time.Second)
		switched := func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(trace) >= 3
		}
		busy := func(id int) core.Thunk {
			return func(c *core.Context) ([]core.Value, error) {
				for !switched() && time.Now().Before(deadline) {
					mark(id)
					c.Poll() // the preemption point
				}
				return nil, nil
			}
		}
		t1 := ctx.Fork(busy(1), vm.VP(0), core.WithStealable(false))
		t2 := ctx.Fork(busy(2), vm.VP(0), core.WithStealable(false))
		ctx.Wait(t1)
		ctx.Wait(t2)
		mu.Lock()
		defer mu.Unlock()
		if len(trace) < 3 {
			t.Errorf("no interleaving: trace %v", trace)
		}
		return nil
	})
	var preempts uint64
	for _, vp := range vm.VPs() {
		preempts += vp.Stats().Preemptions.Load()
	}
	if preempts == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestDifferentPMsPerVP(t *testing.T) {
	// §3.3: different VPs in one VM can run different policy managers.
	lifo := LocalLIFO(LocalLIFOConfig{})
	fifo := GlobalFIFO()
	vm := testkit.VMWith(t, 2, core.VMConfig{
		VPs: 2,
		PolicyFactory: func(vp *core.VP) core.PolicyManager {
			if vp.Index() == 0 {
				return lifo(vp)
			}
			return fifo(vp)
		},
	})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		a := ctx.Fork(func(*core.Context) ([]core.Value, error) { return testkit.One(1), nil }, vm.VP(0))
		b := ctx.Fork(func(*core.Context) ([]core.Value, error) { return testkit.One(2), nil }, vm.VP(1))
		va, err := ctx.Value1(a)
		if err != nil {
			return err
		}
		vb, err := ctx.Value1(b)
		if err != nil {
			return err
		}
		if va != 1 || vb != 2 {
			t.Errorf("values %v %v", va, vb)
		}
		return nil
	})
}

// TestPriorityChangeReranksQueued: raising the priority of a queued thread,
// from Go or from Scheme, moves it to the front of the Priority queue.
func TestPriorityChangeReranksQueued(t *testing.T) {
	cases := []struct {
		name  string
		raise func(ctx *core.Context, in *scheme.Interp, th *core.Thread) error
	}{
		{"go", func(ctx *core.Context, _ *scheme.Interp, th *core.Thread) error {
			ctx.VP().SetPriority(th, 9)
			return nil
		}},
		{"scheme", func(ctx *core.Context, in *scheme.Interp, th *core.Thread) error {
			in.Global().Define("t", th)
			_, err := in.EvalIn(ctx, "(thread-priority! t 9)")
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vm := vmWithPolicy(t, 1, 1, Priority())
			in := scheme.New(vm)
			testkit.RunIn(t, vm, func(ctx *core.Context) error {
				order, threads := spawnOrderProbe(ctx, vm, 3)
				if err := tc.raise(ctx, in, threads[2]); err != nil {
					return err
				}
				ctx.BlockOnGroup(len(threads), threads)
				if got := *order; len(got) != 3 || got[0] != 2 {
					t.Errorf("dispatch order %v, want the raised thread 2 first", got)
				}
				if p := threads[2].Priority(); p != 9 {
					t.Errorf("raised thread's priority = %d, want 9", p)
				}
				return nil
			})
		})
	}
}

// TestSharedQueueFIFOReuse drives the keyless queue through growth, drains
// and moves to the front of its array: order holds, Len counts, no slot
// outside the queue keeps a runnable, and the array stays within a small
// multiple of the longest queue.
func TestSharedQueueFIFOReuse(t *testing.T) {
	q := &sharedQueue{}
	rng := rand.New(rand.NewSource(1))
	var want []int
	next, longest := 0, 0
	for step := 0; step < 4000; step++ {
		pops := 9 // even phases drain often; odd ones let the queue grow
		if step/500%2 == 1 {
			pops = 8
		}
		for k := rng.Intn(9); k > 0; k-- {
			q.pushBack(entry{r: next})
			want = append(want, next)
			next++
		}
		longest = max(longest, len(want))
		for k := rng.Intn(pops); k > 0; k-- {
			r := q.popFront()
			if len(want) == 0 {
				if r != nil {
					t.Fatalf("step %d: popped %v from an empty queue", step, r)
				}
				continue
			}
			if r != want[0] {
				t.Fatalf("step %d: popped %v, want %d", step, r, want[0])
			}
			want = want[1:]
		}
		if n := q.Len(); n != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, n, len(want))
		}
		for i, e := range q.h[:cap(q.h)] {
			if (i < q.head || i >= len(q.h)) && e.r != nil {
				t.Fatalf("step %d: slot %d outside the queue holds %v", step, i, e.r)
			}
		}
	}
	if c := cap(q.h); c > 4*longest {
		t.Errorf("array capacity %d for a queue never longer than %d", c, longest)
	}
}

// TestPriorityChangeRacesEnqueue: a priority change that lands while its
// thread is being enqueued is not lost. Each round queues a priority-5
// thread, then enqueues a priority-0 thread while another goroutine raises
// it to 9; the raised thread must dispatch first.
func TestPriorityChangeRacesEnqueue(t *testing.T) {
	vm := vmWithPolicy(t, 1, 1, Priority())
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		vp, pm := ctx.VP(), ctx.VP().PM()
		noop := func(*core.Context) ([]core.Value, error) { return nil, nil }
		for r := 0; r < 10000; r++ {
			ref, th := ctx.CreateThread(noop), ctx.CreateThread(noop)
			vp.SetPriority(ref, 5)
			pm.EnqueueThread(vp, ref, core.EnqNew)
			raised := make(chan struct{})
			go func() { vp.SetPriority(th, 9); close(raised) }()
			pm.EnqueueThread(vp, th, core.EnqNew)
			<-raised
			if first, second := pm.GetNextThread(vp), pm.GetNextThread(vp); first != core.Runnable(th) || second != core.Runnable(ref) {
				return fmt.Errorf("round %d: the raised thread did not dispatch first", r)
			}
		}
		return nil
	})
}
