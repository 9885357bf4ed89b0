package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinesAtMost waits up to two seconds for the goroutine count to fall
// to limit (exiting goroutines leave asynchronously) and returns the count.
func goroutinesAtMost(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > limit && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNonBlockingThreadsGetNoGoroutine: a thread that never parks runs as a
// call on its PP's carrier, so forking and joining 10,000 of them over 8 VPs
// on 2 PPs costs no goroutine beyond the carriers and the parked root; and
// Shutdown releases the spare carriers.
func TestNonBlockingThreadsGetNoGoroutine(t *testing.T) {
	const procs, n = 2, 10000
	base := goroutinesAtMost(runtime.NumGoroutine())
	m := NewMachine(MachineConfig{Processors: procs})
	defer m.Shutdown()
	vm, err := m.NewVM(VMConfig{VPs: 8})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	var peak atomic.Int64
	sample := func() {
		g := int64(runtime.NumGoroutine())
		for p := peak.Load(); g > p && !peak.CompareAndSwap(p, g); p = peak.Load() {
		}
	}
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		kids := make([]*Thread, n)
		for i := range kids {
			kids[i] = ctx.Fork(func(*Context) ([]Value, error) {
				sample()
				return one(1), nil
			}, ctx.VM().VP(i), WithStealable(false))
		}
		ctx.BlockOnGroup(n, kids)
		sum := 0
		for _, k := range kids {
			v, err := ctx.Value1(k)
			if err != nil {
				return nil, err
			}
			sum += v.(int)
		}
		return one(sum), nil
	})
	if err != nil || vals[0] != n {
		t.Fatalf("Run = %v, %v; want [%d]", vals, err, n)
	}
	if got, limit := int(peak.Load()), base+procs+2; got > limit {
		t.Fatalf("goroutines inside the thunks peaked at %d, want <= %d (baseline %d + %d PPs + 2)",
			got, limit, base, procs)
	}
	m.Shutdown()
	if got := goroutinesAtMost(base); got > base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", got, base)
	}
}

// goexitContained runs a thread whose thunk calls runtime.Goexit after
// prelude, on a one-VP machine, and checks that the thread is determined
// with errGoexit, that the same VP then dispatches and finishes another
// thread, and that Shutdown leaves no goroutine above the baseline.
func goexitContained(t *testing.T, prelude func(ctx *Context)) {
	base := goroutinesAtMost(runtime.NumGoroutine())
	m := NewMachine(MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	var first *VP
	exited := vm.Spawn(func(ctx *Context) ([]Value, error) {
		first = ctx.VP()
		prelude(ctx)
		runtime.Goexit()
		return nil, nil
	})
	if _, err := JoinThread(exited); !errors.Is(err, errGoexit) {
		t.Fatalf("exited thread's error = %v, want errGoexit", err)
	}
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		if ctx.VP() != first {
			t.Errorf("next thread ran on %v, want %v", ctx.VP(), first)
		}
		return one(7), nil
	})
	if err != nil || vals[0] != 7 {
		t.Fatalf("next thread = %v, %v; want [7]", vals, err)
	}
	m.Shutdown()
	if got := goroutinesAtMost(base); got > base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", got, base)
	}
}

func TestGoexitBeforeParkContained(t *testing.T) {
	goexitContained(t, func(*Context) {})
}

func TestGoexitAfterBlockContained(t *testing.T) {
	goexitContained(t, func(ctx *Context) {
		var ready atomic.Bool
		tcb := ctx.TCB()
		time.AfterFunc(time.Millisecond, func() {
			ready.Store(true)
			WakeTCB(tcb)
		})
		ctx.BlockUntil(ready.Load)
	})
}
