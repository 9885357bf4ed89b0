package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestThreadStateStrings(t *testing.T) {
	cases := map[fmt.Stringer]string{
		Delayed:        "delayed",
		Scheduled:      "scheduled",
		Evaluating:     "evaluating",
		Stolen:         "stolen",
		Determined:     "determined",
		ExecReady:      "ready",
		ExecRunning:    "running",
		ExecBlocked:    "blocked",
		ExecSuspended:  "suspended",
		ExecDone:       "done",
		EnqDelayed:     "delayed",
		EnqNew:         "new",
		EnqKernelBlock: "kernel-block",
		EnqUserBlock:   "user-block",
		EnqSuspended:   "suspended",
		EnqYield:       "yield",
		EnqPreempted:   "preempted",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%T(%v).String() = %q, want %q", v, v, got, want)
		}
	}
}

func TestMultipleValues(t *testing.T) {
	vm := testVM(t, 1, 1)
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) {
			return []Value{1, "two", 3.0}, nil
		}, nil, WithStealable(false))
		return ctx.Value(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[1] != "two" || vals[2] != 3.0 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestGenealogy(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		me := ctx.Thread()
		a := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil }, nil)
		b := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil })
		kids := me.Children()
		if len(kids) != 2 || kids[0] != a || kids[1] != b {
			t.Errorf("children %v", kids)
		}
		if a.Parent() != me || b.Parent() != me {
			t.Error("parent links wrong")
		}
		// Children belong to my child group; I belong to the VM root group.
		if a.Group() != me.ChildGroup() {
			t.Error("child not in my child group")
		}
		if me.Group() != ctx.VM().RootGroup() {
			t.Error("root thread not in root group")
		}
		ThreadTerminate(b)
		ctx.Wait(a)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupProfile(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		g := NewGroup("profiled", nil)
		for i := 0; i < 3; i++ {
			k := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil }, nil, WithGroup(g))
			ctx.Wait(k)
		}
		live := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil }, WithGroup(g))
		p := g.Profile()
		if p.Created != 4 {
			t.Errorf("created = %d", p.Created)
		}
		if p.Determined != 3 {
			t.Errorf("determined = %d", p.Determined)
		}
		if p.Live != 1 {
			t.Errorf("live = %d", p.Live)
		}
		if p.ByState[Delayed] != 1 {
			t.Errorf("by-state %v", p.ByState)
		}
		ThreadTerminate(live)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFluidBindings(t *testing.T) {
	vm := testVM(t, 1, 1)
	type key struct{ name string }
	k := key{"depth"}
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		if _, ok := ctx.Fluid(k); ok {
			t.Error("binding present before fluid-let")
		}
		var inner Value
		var childSaw Value
		ctx.FluidLet(k, 7, func() {
			inner, _ = ctx.Fluid(k)
			// Threads capture the creator's dynamic environment.
			child := ctx.Fork(func(c *Context) ([]Value, error) {
				v, _ := c.Fluid(k)
				return []Value{v}, nil
			}, nil, WithStealable(false))
			v, err := ctx.Value1(child)
			if err != nil {
				t.Error(err)
			}
			childSaw = v
			// Nested shadowing.
			ctx.FluidLet(k, 8, func() {
				v, _ := ctx.Fluid(k)
				if v != 8 {
					t.Errorf("nested binding %v", v)
				}
			})
			v2, _ := ctx.Fluid(k)
			if v2 != 7 {
				t.Errorf("binding after nested exit %v", v2)
			}
		})
		if inner != 7 || childSaw != 7 {
			t.Errorf("inner=%v childSaw=%v", inner, childSaw)
		}
		if _, ok := ctx.Fluid(k); ok {
			t.Error("binding survived fluid-let")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithoutPreemptionDefersQuantum(t *testing.T) {
	m := testMachine(t, 1)
	vm, err := m.NewVM(VMConfig{VPs: 1, VP: VPConfig{DefaultQuantum: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		tcb := ctx.TCB()
		before := tcb.preempts
		ctx.WithoutPreemption(func() {
			for i := 0; i < 100; i++ {
				ctx.Poll() // quantum long expired, but preemption is off
			}
			if tcb.preempts != before {
				t.Error("preempted inside without-preemption")
			}
			if !tcb.deferred {
				t.Error("expired quantum not recorded as deferred")
			}
		})
		// The deferred preemption fires on exit.
		if tcb.preempts == before {
			t.Error("deferred preemption never honoured")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithoutInterruptsDefersTermination(t *testing.T) {
	vm := testVM(t, 2, 2)
	entered := make(chan *Thread, 1)
	exited := make(chan struct{})
	victim := vm.Spawn(func(ctx *Context) ([]Value, error) {
		ctx.WithoutInterrupts(func() {
			entered <- ctx.Thread()
			// Spin at TC entries; the terminate request must NOT land here.
			deadline := time.Now().Add(5 * time.Millisecond)
			for time.Now().Before(deadline) {
				ctx.Poll()
			}
			close(exited)
		})
		// …but it lands at the next TC entry after the region.
		for {
			ctx.Poll()
		}
	})
	target := <-entered
	ThreadTerminate(target)
	<-exited // the critical region completed despite the request
	if _, err := JoinThread(victim); !errors.Is(err, ErrTerminated) {
		t.Fatalf("err = %v, want termination", err)
	}
}

func TestSuspendTimedResume(t *testing.T) {
	vm := testVM(t, 2, 2)
	start := time.Now()
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(c *Context) ([]Value, error) {
			c.SuspendSelf(3 * time.Millisecond)
			return []Value{time.Since(start)}, nil
		}, nil, WithStealable(false))
		v, err := ctx.Value1(child)
		if err != nil {
			return nil, err
		}
		return []Value{v}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := vals[0].(time.Duration); d < 3*time.Millisecond {
		t.Fatalf("suspend resumed after %v, want ≥ 3ms", d)
	}
}

func TestSuspendIndefiniteNeedsThreadRun(t *testing.T) {
	vm := testVM(t, 2, 2)
	started := make(chan *Thread, 1)
	child := vm.Spawn(func(ctx *Context) ([]Value, error) {
		started <- ctx.Thread()
		ctx.SuspendSelf(0)
		return []Value{"resumed"}, nil
	})
	target := <-started
	time.Sleep(2 * time.Millisecond)
	if target.Determined() {
		t.Fatal("indefinite suspend returned on its own")
	}
	if err := ThreadRun(target, vm.VP(0)); err != nil {
		t.Fatal(err)
	}
	vals, err := JoinThread(child)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != "resumed" {
		t.Fatalf("got %v", vals)
	}
}

func TestRemoteSuspendRequest(t *testing.T) {
	vm := testVM(t, 2, 2)
	started := make(chan *Thread, 1)
	child := vm.Spawn(func(ctx *Context) ([]Value, error) {
		started <- ctx.Thread()
		for {
			ctx.Poll() // the suspend request lands at a TC entry
		}
	})
	target := <-started
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ctx.ThreadSuspend(target, 0)
		// Wait until the target actually suspends.
		for target.Exec() != ExecSuspended {
			ctx.Yield()
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ThreadTerminate(target)
	if _, err := JoinThread(child); !errors.Is(err, ErrTerminated) {
		t.Fatalf("err = %v", err)
	}
}

func TestTryValueStates(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		lazy := ctx.CreateThread(func(*Context) ([]Value, error) { return []Value{1}, nil })
		if _, err := lazy.TryValue(); !errors.Is(err, ErrNotDetermined) {
			t.Errorf("TryValue on delayed: %v", err)
		}
		ctx.Wait(lazy)
		vals, err := lazy.TryValue()
		if err != nil || vals[0] != 1 {
			t.Errorf("TryValue after determine: %v %v", vals, err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteErrorChain(t *testing.T) {
	vm := testVM(t, 1, 1)
	boom := errors.New("inner")
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		a := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, boom })
		b := ctx.CreateThread(func(c *Context) ([]Value, error) {
			_, err := c.Value(a)
			return nil, err
		})
		_, err := ctx.Value(b)
		return nil, err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is through two thread boundaries failed: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("no RemoteError in chain: %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) {
			panic("child panic")
		}, nil, WithStealable(false))
		_, err := ctx.Value(child)
		return nil, err
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "child panic" {
		t.Fatalf("err = %v, want PanicError(child panic)", err)
	}
}

func TestStolenPanicPropagatesToStealer(t *testing.T) {
	vm := testVM(t, 1, 1)
	var stolen *Thread
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		stolen = ctx.CreateThread(func(*Context) ([]Value, error) {
			panic("stolen panic")
		})
		ctx.Wait(stolen) // steals, panic propagates into us
		return nil, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("stealer err = %v", err)
	}
	// The stolen thread itself is also determined as failed.
	if _, serr := stolen.TryValue(); serr == nil {
		t.Fatal("stolen thread has no error")
	}
}

func TestTerminateSelf(t *testing.T) {
	vm := testVM(t, 1, 1)
	child := vm.Spawn(func(ctx *Context) ([]Value, error) {
		ctx.TerminateSelf("bye", 2)
		t.Error("unreachable after TerminateSelf")
		return nil, nil
	})
	vals, err := JoinThread(child)
	if !errors.Is(err, ErrTerminated) {
		t.Fatalf("err = %v", err)
	}
	if len(vals) != 2 || vals[0] != "bye" || vals[1] != 2 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestTerminateBlockedThread(t *testing.T) {
	vm := testVM(t, 2, 2)
	started := make(chan *Thread, 1)
	child := vm.Spawn(func(ctx *Context) ([]Value, error) {
		started <- ctx.Thread()
		ctx.BlockSelf("forever")
		return []Value{"woke"}, nil
	})
	target := <-started
	for target.Exec() != ExecBlocked {
		time.Sleep(100 * time.Microsecond)
	}
	ThreadTerminate(target)
	if _, err := JoinThread(child); !errors.Is(err, ErrTerminated) {
		t.Fatalf("blocked thread not terminated: %v", err)
	}
}

func TestThreadRunBadTransitions(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		done := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil }, nil, WithStealable(false))
		ctx.Wait(done)
		if err := ThreadRun(done, ctx.VP()); !errors.Is(err, ErrBadTransition) {
			t.Errorf("run determined thread: %v", err)
		}
		if err := ThreadRun(done, nil); !errors.Is(err, ErrBadTransition) {
			t.Errorf("run with nil vp: %v", err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockOnGroupCounts(t *testing.T) {
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		mk := func(yields int) *Thread {
			return ctx.Fork(func(c *Context) ([]Value, error) {
				for i := 0; i < yields; i++ {
					c.Yield()
				}
				return nil, nil
			}, nil, WithStealable(false))
		}
		// count > already-determined: still blocks until enough finish.
		group := []*Thread{mk(0), mk(5), mk(10), mk(200)}
		ctx.BlockOnGroup(3, group)
		done := 0
		for _, g := range group {
			if g.Determined() {
				done++
			}
		}
		if done < 3 {
			t.Errorf("only %d determined after wait-for-3", done)
		}
		// count 0 returns immediately; nil thread counts as complete.
		ctx.BlockOnGroup(0, group)
		ctx.BlockOnGroup(1, []*Thread{nil, mk(0)})
		ctx.BlockOnGroup(len(group), group)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the wait-word packing (generation | count) survives arbitrary
// begin/adjust/fire interleavings without cross-generation leakage.
func TestWaitWordProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		tcb := &TCB{}
		for _, c := range counts {
			n := int32(c%7) + 1
			gen := tcb.beginWait(n)
			// Fire exactly n barriers of this generation plus a few stale
			// ones from the previous generation.
			stale := &TB{tcb: tcb, gen: gen - 1}
			stale.fire()
			for i := int32(0); i < n; i++ {
				tb := &TB{tcb: tcb, gen: gen}
				tb.fire()
			}
			if !tcb.waitSatisfied(gen) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random fork/wait trees always complete with the right value.
func TestRandomForkTreeProperty(t *testing.T) {
	vm := testVM(t, 4, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 1 + rng.Intn(4)
		width := 1 + rng.Intn(3)
		// The thunks run on four VPs and a *rand.Rand is not safe for
		// concurrent use: draw every (level, slot) laziness bit up front.
		lazyBits := rng.Uint32()
		var build func(c *Context, d int) (int, error)
		build = func(c *Context, d int) (int, error) {
			if d == 0 {
				return 1, nil
			}
			kids := make([]*Thread, width)
			for i := range kids {
				lazy := lazyBits>>(d*width+i)&1 == 0
				thunk := func(cc *Context) ([]Value, error) {
					n, err := build(cc, d-1)
					return []Value{n}, err
				}
				if lazy {
					kids[i] = c.CreateThread(thunk)
				} else {
					kids[i] = c.Fork(thunk, nil)
				}
			}
			sum := 1
			for _, k := range kids {
				v, err := c.Value1(k)
				if err != nil {
					return 0, err
				}
				sum += v.(int)
			}
			return sum, nil
		}
		want := 0
		var count func(d int) int
		count = func(d int) int {
			if d == 0 {
				return 1
			}
			return 1 + width*count(d-1)
		}
		want = count(depth)
		vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
			n, err := build(ctx, depth)
			return []Value{n}, err
		})
		return err == nil && vals[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: thread counters are consistent — created == determined after
// all spawned work completes.
func TestThreadAccountingProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := NewMachine(MachineConfig{Processors: 2})
		defer m.Shutdown()
		vm, err := m.NewVM(VMConfig{VPs: 2})
		if err != nil {
			return false
		}
		count := int(n%32) + 1
		_, err = vm.Run(func(ctx *Context) ([]Value, error) {
			kids := make([]*Thread, count)
			for i := range kids {
				kids[i] = ctx.Fork(func(*Context) ([]Value, error) { return nil, nil }, nil)
			}
			for _, k := range kids {
				ctx.Wait(k)
			}
			return nil, nil
		})
		if err != nil {
			return false
		}
		s := vm.Stats()
		return s.ThreadsCreated == s.ThreadsDetermined &&
			s.ThreadsCreated == uint64(count)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
