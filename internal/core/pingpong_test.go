package core

import (
	"sync/atomic"
	"testing"
)

// TestPingPongStress hammers the park/wake protocol: two threads on
// different VPs alternate blocking and waking each other thousands of
// times. Any lost wakeup deadlocks (caught by the test timeout); any double
// wake corrupts the turn counter.
func TestPingPongStress(t *testing.T) {
	vm := testVM(t, 2, 2)
	const rounds = 5000
	var turn atomic.Int64 // even: ping's turn, odd: pong's turn
	var pingT, pongT atomic.Pointer[Thread]
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ping := ctx.Fork(func(c *Context) ([]Value, error) {
			pingT.Store(c.Thread())
			for pongT.Load() == nil {
				c.Yield()
			}
			for i := 0; i < rounds; i++ {
				for turn.Load()%2 != 0 {
					c.BlockSelf("ping-wait")
				}
				turn.Add(1)
				if other := pongT.Load(); other != nil {
					_ = ThreadRun(other, c.VP())
				}
			}
			return one("ping-done"), nil
		}, vm.VP(0), WithStealable(false), WithPinned())
		pong := ctx.Fork(func(c *Context) ([]Value, error) {
			pongT.Store(c.Thread())
			for pingT.Load() == nil {
				c.Yield()
			}
			for i := 0; i < rounds; i++ {
				for turn.Load()%2 != 1 {
					c.BlockSelf("pong-wait")
				}
				turn.Add(1)
				if other := pingT.Load(); other != nil {
					_ = ThreadRun(other, c.VP())
				}
			}
			return one("pong-done"), nil
		}, vm.VP(1), WithStealable(false), WithPinned())
		ctx.Wait(ping)
		ctx.Wait(pong)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := turn.Load(); got != 2*rounds {
		t.Fatalf("turn = %d, want %d", got, 2*rounds)
	}
}

// TestThreadRunBeforeBlockSelfIsNotLost: thread-run on a thread that is
// evaluating and has not blocked yet leaves a permit, so the BlockSelf that
// follows returns instead of erasing the wake and parking for good (the
// lost wakeup behind TestPingPongStress's hang). The permit is consumed:
// a second BlockSelf parks until the next ThreadRun. One VP, cooperative
// switches only, so the interleaving is the same on every run.
func TestThreadRunBeforeBlockSelfIsNotLost(t *testing.T) {
	vm := testVM(t, 1, 1)
	var started, ran, firstReturned atomic.Bool
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		target := ctx.Fork(func(c *Context) ([]Value, error) {
			started.Store(true)
			for !ran.Load() {
				c.Yield()
			}
			c.BlockSelf("first")
			firstReturned.Store(true)
			c.BlockSelf("second")
			return nil, nil
		}, nil, WithStealable(false))
		for !started.Load() {
			ctx.Yield()
		}
		if err := ThreadRun(target, ctx.VP()); err != nil {
			return nil, err
		}
		ran.Store(true)
		for target.Exec() != ExecBlocked {
			ctx.Yield()
		}
		if !firstReturned.Load() {
			t.Error("BlockSelf parked although ThreadRun had already been delivered")
			_ = ThreadRun(target, ctx.VP()) // release it so the run ends
			for target.Exec() != ExecBlocked {
				ctx.Yield()
			}
		}
		if err := ThreadRun(target, ctx.VP()); err != nil {
			return nil, err
		}
		ctx.Wait(target)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitStormManyWaitersOneTarget: many threads block on one target; its
// single determine must wake every one of them exactly once.
func TestWaitStormManyWaitersOneTarget(t *testing.T) {
	vm := testVM(t, 4, 4)
	const waiters = 64
	var woken atomic.Int64
	var release atomic.Bool
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		target := ctx.Fork(func(c *Context) ([]Value, error) {
			for !release.Load() {
				c.Yield()
			}
			return one("released"), nil
		}, vm.VP(0), WithStealable(false), WithPinned())
		ws := make([]*Thread, waiters)
		for i := range ws {
			ws[i] = ctx.Fork(func(c *Context) ([]Value, error) {
				v, err := c.Value1(target)
				if err != nil {
					return nil, err
				}
				woken.Add(1)
				return one(v), nil
			}, vm.VP(i%4), WithStealable(false))
		}
		for i := 0; i < 50; i++ {
			ctx.Yield()
		}
		release.Store(true)
		for _, w := range ws {
			v, err := ctx.Value1(w)
			if err != nil {
				return nil, err
			}
			if v != "released" {
				t.Errorf("waiter saw %v", v)
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := woken.Load(); got != waiters {
		t.Fatalf("woken = %d, want %d", got, waiters)
	}
}

// TestNestedStealChain: delayed thread A waits on delayed B waits on
// delayed C — demanding A runs the whole chain inline on one TCB.
func TestNestedStealChain(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		const depth = 200
		chain := make([]*Thread, depth)
		for i := depth - 1; i >= 0; i-- {
			i := i
			chain[i] = ctx.CreateThread(func(c *Context) ([]Value, error) {
				if i == depth-1 {
					return one(1), nil
				}
				v, err := c.Value1(chain[i+1])
				if err != nil {
					return nil, err
				}
				return one(v.(int) + 1), nil
			})
		}
		v, err := ctx.Value1(chain[0])
		if err != nil {
			return nil, err
		}
		if v != depth {
			t.Errorf("chain value %v, want %d", v, depth)
		}
		// Confirm depth tracking unwound completely.
		if n := len(ctx.TCB().stolen); n != 0 {
			t.Errorf("stolen stack depth %d after chain", n)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := vm.Stats(); s.Steals != 200 {
		t.Fatalf("steals = %d, want 200", s.Steals)
	}
}
