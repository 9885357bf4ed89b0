package tspace

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
)

// TestConcurrentProducersConsumers hammers one hash space from several
// producer and consumer threads; every produced tuple must be consumed
// exactly once and the space must drain to empty.
func TestConcurrentProducersConsumers(t *testing.T) {
	vm := testkit.VM(t, 4, 8)
	ts := New(KindHash, Config{Bins: 16})
	const producers, consumers, perProducer = 4, 4, 100
	var consumed atomic.Int64
	var sum atomic.Int64
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var all []*core.Thread
		for p := 0; p < producers; p++ {
			p := p
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := 0; i < perProducer; i++ {
					if err := ts.Put(c, Tuple{"item", p*perProducer + i}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(p), core.WithStealable(false)))
		}
		for q := 0; q < consumers; q++ {
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for {
					_, b, err := ts.Get(c, Template{"item", F("v")})
					if err != nil {
						return nil, err
					}
					v := b["v"].(int)
					if v < 0 {
						return nil, nil
					}
					consumed.Add(1)
					sum.Add(int64(v))
				}
			}, vm.VP(producers+q), core.WithStealable(false)))
		}
		// Join producers, then poison consumers.
		for _, th := range all[:producers] {
			ctx.Wait(th)
		}
		for range all[producers:] {
			if err := ts.Put(ctx, Tuple{"item", -1}); err != nil {
				return err
			}
		}
		for _, th := range all[producers:] {
			ctx.Wait(th)
		}
		return nil
	})
	total := producers * perProducer
	if got := consumed.Load(); got != int64(total) {
		t.Fatalf("consumed %d, want %d", got, total)
	}
	want := int64(total) * int64(total-1) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum %d, want %d (lost or duplicated tuples)", got, want)
	}
	if n := ts.Len(); n != 0 {
		t.Fatalf("space not drained: %d tuples left", n)
	}
}

// TestRdManyReadersOneWriter: rd never consumes, so any number of readers
// observe the same tuple; a subsequent get still finds it.
func TestRdManyReadersOneWriter(t *testing.T) {
	vm := testkit.VM(t, 2, 4)
	ts := New(KindHash, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		readers := make([]*core.Thread, 6)
		for i := range readers {
			readers[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				_, b, err := ts.Rd(c, Template{"flag", F("v")})
				if err != nil {
					return nil, err
				}
				return []core.Value{b["v"]}, nil
			}, vm.VP(i), core.WithStealable(false))
		}
		for i := 0; i < 5; i++ {
			ctx.Yield()
		}
		if err := ts.Put(ctx, Tuple{"flag", 7}); err != nil {
			return err
		}
		for _, r := range readers {
			v, err := ctx.Value1(r)
			if err != nil {
				return err
			}
			if v != 7 {
				t.Errorf("reader saw %v", v)
			}
		}
		if _, _, err := ts.TryGet(ctx, Template{"flag", 7}); err != nil {
			t.Errorf("tuple consumed by rd: %v", err)
		}
		return nil
	})
}

// TestSpawnEvaluatingElementBlocks: matching a tuple whose thread element
// is still evaluating blocks the matcher until the thread determines.
func TestSpawnEvaluatingElementBlocks(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := New(KindHash, Config{})
	var release atomic.Bool
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		slow := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			for !release.Load() {
				c.Yield() // stay evaluating, but give the VP back politely
			}
			return []core.Value{33}, nil
		}, vm.VP(1), core.WithStealable(false))
		if err := ts.Put(ctx, Tuple{"cell", slow}); err != nil {
			return err
		}
		matcher := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, b, err := ts.Get(c, Template{"cell", F("v")})
			if err != nil {
				return nil, err
			}
			return []core.Value{b["v"]}, nil
		}, nil, core.WithStealable(false))
		for i := 0; i < 10; i++ {
			ctx.Yield()
		}
		if matcher.Determined() {
			t.Error("matcher completed while element still evaluating")
		}
		release.Store(true)
		v, err := ctx.Value1(matcher)
		if err != nil {
			return err
		}
		if v != 33 {
			t.Errorf("matched %v", v)
		}
		return nil
	})
}

// TestGetAtomicityUnderContention: n counters incremented through the
// tuple-space counter idiom across VPs; the total must be exact.
func TestGetAtomicityUnderContention(t *testing.T) {
	vm := testkit.VM(t, 4, 4)
	ts := New(KindHash, Config{Bins: 4})
	const workers, rounds = 4, 60
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		if err := ts.Put(ctx, Tuple{"counter", 0}); err != nil {
			return err
		}
		kids := make([]*core.Thread, workers)
		for i := range kids {
			kids[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for j := 0; j < rounds; j++ {
					_, b, err := ts.Get(c, Template{"counter", F("n")})
					if err != nil {
						return nil, err
					}
					if err := ts.Put(c, Tuple{"counter", b["n"].(int) + 1}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(i), core.WithStealable(false))
		}
		for _, k := range kids {
			ctx.Wait(k)
		}
		_, b, err := ts.Get(ctx, Template{"counter", F("n")})
		if err != nil {
			return err
		}
		if b["n"] != workers*rounds {
			t.Errorf("counter = %v, want %d", b["n"], workers*rounds)
		}
		return nil
	})
}

// TestNoLostWakeUnderStriping stresses HB's unlocked empty check: a deposit
// whose stripes count no waiter takes no lock, which is sound only because a
// waiter raises its stripe's count before its re-probe and a deposit reads
// the count after depositing. Four pairs on four VPs over two PPs hand over
// a fresh key every round, swapping roles, so Puts keep landing in the
// window between a Get's failed probe and its park. A lost wake would park a
// Get forever; each carries a 2 s cancel token, so one fails the test
// instead. Every tuple must be taken exactly once.
func TestNoLostWakeUnderStriping(t *testing.T) {
	vm := testkit.VM(t, 2, 4)
	ts := New(KindHash, Config{}).(*txnFront)
	const pairs, rounds = 4, 3000
	lost := errors.New("lost wake: Get still parked after 2s")
	var taken atomic.Int64
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		side := func(p, me int) core.Thunk {
			return func(c *core.Context) ([]core.Value, error) {
				for r := 0; r < rounds; r++ {
					key := int64(p*rounds + r) // a class of its own
					if r%2 != me {
						if err := ts.Put(c, Tuple{key, r}); err != nil {
							return nil, err
						}
						continue
					}
					tok := NewCancelToken()
					timer := time.AfterFunc(2*time.Second, func() { tok.Cancel(lost) })
					var b Bindings
					var err error
					WithCancel(c, tok, func() { _, b, err = ts.Get(c, Template{key, F("v")}) })
					timer.Stop()
					if err != nil {
						return nil, fmt.Errorf("pair %d round %d: %w", p, r, err)
					}
					if b["v"] != r {
						return nil, fmt.Errorf("pair %d round %d took %v", p, r, b["v"])
					}
					taken.Add(1)
				}
				return nil, nil
			}
		}
		var all []*core.Thread
		for p := 0; p < pairs; p++ {
			for me := 0; me < 2; me++ {
				all = append(all, ctx.Fork(side(p, me), vm.VP((p+me)%4), core.WithStealable(false)))
			}
		}
		for _, th := range all {
			if _, err := ctx.Value(th); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	if got := taken.Load(); got != pairs*rounds || ts.Len() != 0 || ts.Waiters() != 0 {
		t.Fatalf("took %d of %d tuples; %d left, %d waiters", got, pairs*rounds, ts.Len(), ts.Waiters())
	}
}
