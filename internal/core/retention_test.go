package core

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// maxRetainedPerThread bounds what a determined, joined thread may leave
// reachable. A thread kept by its group, with the 256-byte payload its
// thunk captured, costs about 600 B.
const maxRetainedPerThread = 64

// liveHeap is the heap in use right after a collection. It collects twice:
// sync.Pool keeps what it held for one more cycle in its victim cache.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// payloadThunk returns a thunk that captures a fresh 256-byte payload.
func payloadThunk() Thunk {
	p := make([]byte, 256)
	return func(*Context) ([]Value, error) {
		p[0]++
		return nil, nil
	}
}

func checkRetained(t *testing.T, shape string, h0, h1 int64, n int) {
	t.Helper()
	per := (h1 - h0) / int64(n)
	t.Logf("%s: %d B retained per thread over %d threads", shape, per, n)
	if per >= maxRetainedPerThread {
		t.Errorf("%s: %d B retained per thread, want < %d", shape, per, maxRetainedPerThread)
	}
}

// spawnJoin spawns n root threads from thunks made by mk, joining them 100
// at a time from ordinary Go code.
func spawnJoin(t *testing.T, vm *VM, n int, mk func() Thunk) {
	t.Helper()
	batch := make([]*Thread, 100)
	for done := 0; done < n; done += len(batch) {
		for i := range batch {
			batch[i] = vm.Spawn(mk())
		}
		for _, th := range batch {
			if _, err := JoinThread(th); err != nil {
				t.Fatal(err)
			}
		}
	}
	clear(batch)
}

// TestRetentionJoinedRoots: joined root threads, each closed over a
// payload, are not kept by the root group; no Reset is called.
func TestRetentionJoinedRoots(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under the race detector")
	}
	const n = 100000
	vm := testVM(t, 2, 2)
	spawnJoin(t, vm, 1000, payloadThunk) // warm the TCB caches
	h0 := liveHeap()
	spawnJoin(t, vm, n, payloadThunk)
	checkRetained(t, "joined roots", h0, liveHeap(), n)
	if k := len(vm.RootGroup().Threads()); k != 0 {
		t.Errorf("root group holds %d determined threads", k)
	}
}

// TestRetentionForkingRoots: root threads that each fork and join one
// child leave neither themselves nor their (empty) child groups behind.
func TestRetentionForkingRoots(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under the race detector")
	}
	const n = 50000
	vm := testVM(t, 2, 2)
	forker := func() Thunk {
		kid := payloadThunk()
		return func(ctx *Context) ([]Value, error) {
			return ctx.Value(ctx.Fork(kid, nil))
		}
	}
	spawnJoin(t, vm, 1000, forker)
	h0 := liveHeap()
	spawnJoin(t, vm, n, forker)
	checkRetained(t, "forking roots", h0, liveHeap(), n)
	if subs := vm.RootGroup().Subgroups(); len(subs) != 0 {
		t.Errorf("root group lists %d subgroups after every thread finished", len(subs))
	}
}

// TestRetentionLiveParent: a parent that stays live does not keep the
// children it forked and joined.
func TestRetentionLiveParent(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under the race detector")
	}
	const n = 20000
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		forkJoin := func(k int) {
			for i := 0; i < k; i++ {
				if _, err := ctx.Value(ctx.Fork(payloadThunk(), nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
		forkJoin(1000)
		h0 := liveHeap()
		forkJoin(n)
		checkRetained(t, "live parent", h0, liveHeap(), n)
		if k := len(ctx.Thread().ChildGroup().Threads()); k != 0 {
			t.Errorf("child group holds %d joined children", k)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupCascade: T forks U, U forks a spinning V and returns. U has
// left T's child group, but V's group stays listed below it (and it below
// the root group), so kill-group on T's child group still reaches V; once
// V is done no subgroup is left.
func TestGroupCascade(t *testing.T) {
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		u := ctx.Fork(func(c *Context) ([]Value, error) {
			return one(c.Fork(func(cc *Context) ([]Value, error) {
				for {
					cc.Yield()
				}
			}, nil, WithStealable(false))), nil
		}, nil, WithStealable(false))
		val, err := ctx.Value1(u)
		if err != nil {
			return nil, err
		}
		v := val.(*Thread)
		mine := ctx.Thread().ChildGroup()
		if k := len(mine.Threads()); k != 0 {
			t.Errorf("determined U still listed: %d members", k)
		}
		if subs := mine.Subgroups(); len(subs) != 1 || subs[0] != v.Group() {
			t.Errorf("V's group not listed below T's child group: %v", subs)
		}
		if subs := vm.RootGroup().Subgroups(); len(subs) != 1 || subs[0] != mine {
			t.Errorf("T's child group not listed below the root group while V lives: %v", subs)
		}
		mine.Terminate()
		ctx.Wait(v)
		if !v.Terminated() {
			t.Error("kill-group on T's child group missed the orphaned V")
		}
		if subs := vm.RootGroup().Subgroups(); len(subs) != 0 {
			t.Errorf("root group lists %d subgroups after V finished", len(subs))
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
