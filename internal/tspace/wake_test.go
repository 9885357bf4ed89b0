package tspace

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// settle yields until cond holds (or the budget runs out) so tests can wait
// for sibling threads to park without wall-clock sleeps.
func settle(ctx *core.Context, cond func() bool) bool {
	for i := 0; i < 10000; i++ {
		if cond() {
			return true
		}
		ctx.Yield()
	}
	return cond()
}

// TestTargetedWakeCompatibleOnly checks a deposit wakes only waiters whose
// template class it can satisfy: the waiter on a different key stays parked.
func TestTargetedWakeCompatibleOnly(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*txnFront)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var got1, got2 atomic.Bool
		w1 := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, _, err := ts.Get(c, Template{"key1", F("v")})
			got1.Store(true)
			return nil, err
		}, nil)
		w2 := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, _, err := ts.Get(c, Template{"key2", F("v")})
			got2.Store(true)
			return nil, err
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 2 }) {
			t.Fatal("waiters never parked")
		}
		if err := ts.Put(ctx, Tuple{"key1", 1}); err != nil {
			return err
		}
		if !settle(ctx, func() bool { return got1.Load() }) {
			t.Fatal("key1 waiter not woken by key1 deposit")
		}
		if got2.Load() || ts.Waiters() != 1 {
			t.Fatalf("key2 waiter disturbed: done=%v waiters=%d", got2.Load(), ts.Waiters())
		}
		wakes, misses, _ := ts.WakeStats()
		if wakes != 1 || misses != 0 {
			t.Fatalf("wakes=%d misses=%d, want 1 0", wakes, misses)
		}
		if err := ts.Put(ctx, Tuple{"key2", 2}); err != nil {
			return err
		}
		ctx.Wait(w1)
		ctx.Wait(w2)
		return nil
	})
}

// TestWakeHandoffChain checks the baton: the deposit wakes the oldest
// same-class waiter, whose template nonetheless rejects the tuple; the miss
// hands the wake to the next compatible waiter instead of stranding it.
func TestWakeHandoffChain(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*txnFront)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var pickyDone, easyDone atomic.Bool
		picky := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, _, err := ts.Get(c, Template{"k", 1}) // only matches {"k", 1}
			pickyDone.Store(true)
			return nil, err
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 1 }) {
			t.Fatal("picky waiter never parked")
		}
		easy := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, _, err := ts.Get(c, Template{"k", F("v")})
			easyDone.Store(true)
			return nil, err
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 2 }) {
			t.Fatal("easy waiter never parked")
		}
		// Same class as both, but only the younger template accepts it. The
		// single wake goes to the older (picky) waiter, which must pass it
		// on.
		if err := ts.Put(ctx, Tuple{"k", 2}); err != nil {
			return err
		}
		if !settle(ctx, func() bool { return easyDone.Load() }) {
			t.Fatal("handoff never reached the compatible waiter")
		}
		if pickyDone.Load() {
			t.Fatal("picky waiter should still be blocked")
		}
		wakes, misses, handoffs := ts.WakeStats()
		if wakes != 1 || misses < 1 || handoffs < 1 {
			t.Fatalf("wakes=%d misses=%d handoffs=%d", wakes, misses, handoffs)
		}
		if err := ts.Put(ctx, Tuple{"k", 1}); err != nil {
			return err
		}
		ctx.Wait(picky)
		ctx.Wait(easy)
		return nil
	})
}

// TestCancelPassesBaton checks a canceled waiter cannot strand a wake: the
// deposit's obligation moves on to the surviving waiter even when the woken
// one leaves for cancellation instead of a re-probe.
func TestCancelPassesBaton(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*txnFront)
	reason := errors.New("client gone")
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		tok := NewCancelToken()
		var canceledErr error
		first := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			WithCancel(c, tok, func() {
				_, _, canceledErr = ts.Get(c, Template{"k", 1}) // rejects {"k",2}
			})
			return nil, nil
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 1 }) {
			t.Fatal("first waiter never parked")
		}
		var survivorDone atomic.Bool
		survivor := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, _, err := ts.Get(c, Template{"k", F("v")})
			survivorDone.Store(true)
			return nil, err
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 2 }) {
			t.Fatal("survivor never parked")
		}
		// Wakes the older (cancelable) waiter; rejected there, and the token
		// fires while it holds the baton — the handoff must still happen.
		tok.Cancel(reason)
		if err := ts.Put(ctx, Tuple{"k", 2}); err != nil {
			return err
		}
		if !settle(ctx, func() bool { return survivorDone.Load() && canceledErr != nil }) {
			t.Fatalf("survivor=%v canceled=%v", survivorDone.Load(), canceledErr)
		}
		if !errors.Is(canceledErr, reason) {
			t.Fatalf("canceled waiter returned %v", canceledErr)
		}
		ctx.Wait(first)
		ctx.Wait(survivor)
		return nil
	})
}

// TestSemaphoreWakeChain checks the semaphore regime under single wakes: one
// V must unblock every blocked reader (non-consuming Rd) through the
// success-side baton chain, not just the first.
func TestSemaphoreWakeChain(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindSemaphore, Config{}).(*front)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		const readers = 3
		var done atomic.Int32
		ths := make([]*core.Thread, readers)
		for i := range ths {
			ths[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				_, _, err := ts.Rd(c, Template{})
				done.Add(1)
				return nil, err
			}, nil)
		}
		if !settle(ctx, func() bool { return ts.Waiters() == readers }) {
			t.Fatal("readers never parked")
		}
		if err := ts.Put(ctx, Tuple{"token"}); err != nil {
			return err
		}
		if !settle(ctx, func() bool { return done.Load() == readers }) {
			t.Fatalf("only %d/%d readers woke from one V", done.Load(), readers)
		}
		for _, th := range ths {
			ctx.Wait(th)
		}
		return nil
	})
}

// TestUnkeyableDepositWakesArity checks the conservative fallback: a tuple
// whose first field cannot key the index (a thread) must wake keyed waiters
// too, since its demanded value may match them.
func TestUnkeyableDepositWakesArity(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*txnFront)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		var gotV core.Value
		var done atomic.Bool
		w := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			_, b, err := ts.Get(c, Template{42, F("v")})
			gotV = b["v"]
			done.Store(true)
			return nil, err
		}, nil)
		if !settle(ctx, func() bool { return ts.Waiters() == 1 }) {
			t.Fatal("waiter never parked")
		}
		// The first element is a thread; its value (42) only exists after a
		// demand, so the deposit cannot be keyed and must wake the class.
		if _, err := ts.Spawn(ctx,
			func(*core.Context) ([]core.Value, error) { return []core.Value{42}, nil },
			func(*core.Context) ([]core.Value, error) { return []core.Value{"payload"}, nil },
		); err != nil {
			return err
		}
		if !settle(ctx, func() bool { return done.Load() }) {
			t.Fatal("keyed waiter missed the unkeyable deposit")
		}
		if gotV != "payload" {
			t.Fatalf("binding = %v", gotV)
		}
		ctx.Wait(w)
		return nil
	})
}

// TestHashesPerOperation: the front classes a template once per operation
// and hands that key to every probe, to HB and to the re-probe, so a
// parked Get hashes once however often it probes. A hit Put+Get pair and a
// parked Get plus the Put that wakes it each hash twice; a TryGet miss
// hashes once. ApplyCommit classes each logged tuple once, however many
// commit hooks it passes through.
func TestHashesPerOperation(t *testing.T) {
	var hashes atomic.Int64
	hashHook = func() { hashes.Add(1) }
	t.Cleanup(func() { hashHook = nil })
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*txnFront)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		count := func(what string, want int64, op func() error) {
			hashes.Store(0)
			if err := op(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := hashes.Load(); got != want {
				t.Errorf("%s hashed %d times, want %d", what, got, want)
			}
		}
		tpl := Template{"k", F("v")}
		count("a hit Put+Get pair", 2, func() error {
			if err := ts.Put(ctx, Tuple{"k", 1}); err != nil {
				return err
			}
			_, _, err := ts.Get(ctx, tpl)
			return err
		})
		count("a TryGet miss", 1, func() error {
			if _, _, err := ts.TryGet(ctx, tpl); err != ErrNoMatch {
				return fmt.Errorf("TryGet on an empty space: %v", err)
			}
			return nil
		})
		parked := func(wait func(c *core.Context) error) func() error {
			return func() error {
				w := ctx.Fork(func(c *core.Context) ([]core.Value, error) { return nil, wait(c) }, nil)
				if !settle(ctx, func() bool { return ts.Waiters() == 1 }) {
					return errors.New("waiter never parked")
				}
				if err := ts.Put(ctx, Tuple{"k", 2}); err != nil {
					return err
				}
				_, err := ctx.Value1(w)
				return err
			}
		}
		count("a parked Get and its waking Put", 2, parked(func(c *core.Context) error {
			_, _, err := ts.Get(c, tpl)
			return err
		}))
		count("a parked TxnWait and its waking Put", 2, parked(func(c *core.Context) error {
			_, _, _, err := ts.TxnWait(c, tpl, nil)
			return err
		}))
		tup := Tuple{"c", 1}
		if err := ts.Put(ctx, tup); err != nil {
			t.Fatal(err)
		}
		count("a commit that takes one tuple", 1, func() error {
			return ApplyCommit(ctx, []CommitOp{{Space: ts, Name: "t", Kind: TxnTake, Tup: tup}})
		})
		if err := ts.Put(ctx, tup); err != nil {
			t.Fatal(err)
		}
		_, _, ver, err := ts.TxnProbe(ctx, Template{"c", F("v")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Put(ctx, Tuple{"c", 2}); err != nil { // moves the bucket
			t.Fatal(err)
		}
		count("a commit that validates a read whose bucket moved", 1, func() error {
			return ApplyCommit(ctx, []CommitOp{{Space: ts, Name: "t", Kind: TxnRead, Ver: ver, Tup: tup}})
		})
		return nil
	})
}
