package synch

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/testkit"
)

func TestMutexMutualExclusion(t *testing.T) {
	vm := testkit.VM(t, 4, 4)
	m := NewMutex(8, 2)
	counter := 0
	const workers, incs = 8, 200
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		kids := make([]*core.Thread, workers)
		for i := range kids {
			kids[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for j := 0; j < incs; j++ {
					m.Acquire(c)
					counter++ // data race unless the mutex works
					m.Release()
				}
				return nil, nil
			}, vm.VP(i))
		}
		for _, k := range kids {
			ctx.Wait(k)
		}
		return nil
	})
	if counter != workers*incs {
		t.Fatalf("counter = %d, want %d", counter, workers*incs)
	}
}

func TestMutexSpinPaths(t *testing.T) {
	// One VP: the contender must walk the whole ladder — active spins
	// (retaining the VP), passive spins (yielding it), then a real block —
	// because the holder only releases after observing the block.
	vm := testkit.VM(t, 1, 1)
	m := NewMutex(4, 2)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		m.Acquire(ctx)
		contender := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			m.Acquire(c)
			m.Release()
			return nil, nil
		}, nil)
		for m.BlockedAcqs.Load() == 0 {
			ctx.Yield()
		}
		m.Release()
		ctx.Wait(contender)
		return nil
	})
	if m.ActiveSpins.Load() == 0 {
		t.Error("no active spins recorded")
	}
	if m.PassiveSpins.Load() == 0 {
		t.Error("no passive spins recorded")
	}
	if m.BlockedAcqs.Load() == 0 {
		t.Error("no blocked acquisition recorded")
	}
	if m.Locked() {
		t.Error("mutex left locked")
	}
}

func TestWithMutexReleasesOnPanic(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	m := NewMutex(0, 0)
	_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		WithMutex(ctx, m, func() { panic("boom") })
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected the panic to surface as a thread error")
	}
	if m.Locked() {
		t.Fatal("mutex left locked after panic")
	}
}

func TestTryAcquire(t *testing.T) {
	m := NewMutex(0, 0)
	if !m.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if m.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on a held mutex")
	}
	m.Release()
	if !m.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestCondBroadcastReleasesAllWaiters(t *testing.T) {
	vm := testkit.VM(t, 4, 4)
	m := NewMutex(4, 1)
	c := NewCond(m)
	state := 0
	const waiters = 5
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		kids := make([]*core.Thread, waiters)
		for i := range kids {
			kids[i] = ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
				m.Acquire(cc)
				for state == 0 {
					c.Wait(cc)
				}
				got := state
				m.Release()
				return testkit.One(got), nil
			}, vm.VP(i))
		}
		// Let the waiters reach Wait, then flip the state and broadcast.
		for i := 0; i < 100; i++ {
			ctx.Yield()
		}
		m.Acquire(ctx)
		state = 42
		m.Release()
		c.Broadcast()
		for _, k := range kids {
			v, err := ctx.Value1(k)
			if err != nil {
				return err
			}
			if v != 42 {
				t.Errorf("waiter saw state %v", v)
			}
		}
		return nil
	})
}

func TestCondSignalWakesOne(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	m := NewMutex(2, 1)
	c := NewCond(m)
	queue := []int{}
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		consumer := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			total := 0
			for n := 0; n < 3; n++ {
				m.Acquire(cc)
				for len(queue) == 0 {
					c.Wait(cc)
				}
				total += queue[0]
				queue = queue[1:]
				m.Release()
			}
			return testkit.One(total), nil
		}, vm.VP(1))
		for i := 1; i <= 3; i++ {
			m.Acquire(ctx)
			queue = append(queue, i)
			m.Release()
			c.Signal()
			ctx.Yield()
		}
		v, err := ctx.Value1(consumer)
		if err != nil {
			return err
		}
		if v != 6 {
			t.Errorf("consumer total = %v, want 6", v)
		}
		return nil
	})
}

func TestBarrierRounds(t *testing.T) {
	vm := testkit.VM(t, 4, 4)
	const parties, rounds = 4, 5
	b := NewBarrier(parties)
	arrivals := make([][]int, rounds) // per-round arrival markers
	guard := NewMutex(8, 2)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		kids := make([]*core.Thread, parties)
		for i := range kids {
			id := i
			kids[i] = ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
				serials := 0
				for r := 0; r < rounds; r++ {
					guard.Acquire(cc)
					arrivals[r] = append(arrivals[r], id)
					guard.Release()
					if b.Await(cc) {
						serials++
					}
					// After the barrier every party must have arrived in
					// this round.
					guard.Acquire(cc)
					n := len(arrivals[r])
					guard.Release()
					if n != parties {
						t.Errorf("round %d: saw %d arrivals after barrier", r, n)
					}
				}
				return testkit.One(serials), nil
			}, vm.VP(i))
		}
		totalSerials := 0
		for _, k := range kids {
			v, err := ctx.Value1(k)
			if err != nil {
				return err
			}
			totalSerials += v.(int)
		}
		if totalSerials != rounds {
			t.Errorf("serial parties = %d, want %d (one per round)", totalSerials, rounds)
		}
		return nil
	})
}

func TestMutexErrTerminatedUnlocksNothing(t *testing.T) {
	// A thread terminated while blocked on a mutex must not corrupt it.
	vm := testkit.VM(t, 2, 2)
	m := NewMutex(0, 0)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		m.Acquire(ctx)
		victim := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			m.Acquire(cc)
			m.Release()
			return nil, nil
		}, vm.VP(1))
		for i := 0; i < 20; i++ {
			ctx.Yield()
		}
		core.ThreadTerminate(victim)
		ctx.Wait(victim)
		if !victim.Terminated() {
			t.Error("victim not terminated")
		}
		m.Release()
		// The mutex must still work.
		m.Acquire(ctx)
		m.Release()
		return nil
	})
}

// Property: under random arrival patterns, every barrier round releases all
// parties and elects exactly one serial party.
func TestBarrierProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parties := 2 + rng.Intn(3)
		rounds := 1 + rng.Intn(4)
		m := core.NewMachine(core.MachineConfig{Processors: 2})
		defer m.Shutdown()
		vm, err := m.NewVM(core.VMConfig{VPs: parties})
		if err != nil {
			return false
		}
		b := NewBarrier(parties)
		var serials atomic.Int64
		_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			kids := make([]*core.Thread, parties)
			for i := range kids {
				jitter := rng.Intn(5)
				kids[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					for r := 0; r < rounds; r++ {
						for j := 0; j < jitter; j++ {
							c.Yield()
						}
						if b.Await(c) {
							serials.Add(1)
						}
					}
					return nil, nil
				}, vm.VP(i), core.WithStealable(false))
			}
			for _, k := range kids {
				ctx.Wait(k)
			}
			return nil, nil
		})
		return err == nil && serials.Load() == int64(rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
