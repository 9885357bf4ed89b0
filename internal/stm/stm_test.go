package stm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

func TestAtomicCommitsBufferedOps(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, tspace.Tuple{"acct", "a", 100})
		_ = ts.Put(ctx, tspace.Tuple{"acct", "b", 0})
		err := Atomic(ctx, func(tx *Txn) error {
			tupA, _, err := tx.Get(ts, tspace.Template{"acct", "a", tspace.F("n")})
			if err != nil {
				return err
			}
			tupB, _, err := tx.Get(ts, tspace.Template{"acct", "b", tspace.F("n")})
			if err != nil {
				return err
			}
			// Before commit, no effect is visible outside the transaction.
			if ts.Len() != 2 {
				t.Errorf("mid-txn len = %d, want 2 (takes deferred)", ts.Len())
			}
			a := tupA[2].(int)
			b := tupB[2].(int)
			if err := tx.Put(ts, tspace.Tuple{"acct", "a", a - 30}); err != nil {
				return err
			}
			return tx.Put(ts, tspace.Tuple{"acct", "b", b + 30})
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if _, _, err := ts.TryRd(ctx, tspace.Template{"acct", "a", 70}); err != nil {
			t.Errorf("a after commit: %v", err)
		}
		if _, _, err := ts.TryRd(ctx, tspace.Template{"acct", "b", 30}); err != nil {
			t.Errorf("b after commit: %v", err)
		}
		return nil
	})
}

func TestTxnReadsSeeOwnWrites(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		return Atomic(ctx, func(tx *Txn) error {
			if err := tx.Put(ts, tspace.Tuple{"tmp", 1}); err != nil {
				return err
			}
			// The buffered put satisfies a blocking Get without ever
			// touching the space.
			tup, _, err := tx.Get(ts, tspace.Template{"tmp", tspace.F("v")})
			if err != nil {
				return err
			}
			if tup[1] != 1 {
				t.Errorf("own-put get = %v", tup)
			}
			// The get cancelled the put: nothing matches now.
			if _, _, err := tx.TryRd(ts, tspace.Template{"tmp", tspace.F("v")}); !errors.Is(err, tspace.ErrNoMatch) {
				t.Errorf("after net-zero pair: %v, want ErrNoMatch", err)
			}
			return nil
		})
	})
	if ts.Len() != 0 {
		t.Errorf("space len = %d after net-zero transaction", ts.Len())
	}
}

func TestTxnTakesHideClaimedInstances(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, tspace.Tuple{"dup", 1})
		_ = ts.Put(ctx, tspace.Tuple{"dup", 1})
		return Atomic(ctx, func(tx *Txn) error {
			for i := 0; i < 2; i++ {
				if _, _, err := tx.TryGet(ts, tspace.Template{"dup", tspace.F("v")}); err != nil {
					t.Fatalf("take %d: %v", i, err)
				}
			}
			// Both instances are claimed; a third probe sees nothing even
			// though the space still physically holds both.
			if _, _, err := tx.TryGet(ts, tspace.Template{"dup", tspace.F("v")}); !errors.Is(err, tspace.ErrNoMatch) {
				t.Errorf("third take: %v, want ErrNoMatch", err)
			}
			return nil
		})
	})
	if ts.Len() != 0 {
		t.Errorf("len = %d after committing both takes", ts.Len())
	}
}

func TestTxnAbort(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, tspace.Tuple{"keep", 1})
		runs := 0
		err := Atomic(ctx, func(tx *Txn) error {
			runs++
			if _, _, err := tx.Get(ts, tspace.Template{"keep", tspace.F("v")}); err != nil {
				return err
			}
			return tx.Abort()
		})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		if runs != 1 {
			t.Errorf("aborted body ran %d times, want 1 (no retry)", runs)
		}
		// The aborted take committed nothing.
		if _, _, err := ts.TryRd(ctx, tspace.Template{"keep", 1}); err != nil {
			t.Errorf("tuple gone after abort: %v", err)
		}
		return nil
	})
}

func TestAtomicRetriesOnConflict(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, tspace.Tuple{"c", 0})
		attempts := 0
		err := Atomic(ctx, func(tx *Txn) error {
			attempts++
			tup, _, err := tx.Get(ts, tspace.Template{"c", tspace.F("v")})
			if err != nil {
				return err
			}
			if attempts == 1 {
				// Sabotage the first attempt: swap the tuple underneath the
				// transaction with a naked take + re-put of a new value.
				if _, _, err := ts.TryGet(ctx, tspace.Template{"c", tspace.F("v")}); err != nil {
					return err
				}
				if err := ts.Put(ctx, tspace.Tuple{"c", 1}); err != nil {
					return err
				}
			}
			return tx.Put(ts, tspace.Tuple{"c", tup[1].(int) + 10})
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if attempts < 2 {
			t.Errorf("attempts = %d, want ≥ 2 (conflict must retry)", attempts)
		}
		// The committed run read the sabotaged value 1, not the original 0.
		if _, _, err := ts.TryRd(ctx, tspace.Template{"c", 11}); err != nil {
			t.Errorf("final value: %v", err)
		}
		return nil
	})
}

func TestTxnMixedDomainsRejected(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		fake := &fakeRemote{name: "far"}
		err := Atomic(ctx, func(tx *Txn) error {
			if err := tx.Put(ts, tspace.Tuple{"local", 1}); err != nil {
				return err
			}
			return tx.Put(fake, tspace.Tuple{"remote", 1})
		})
		if !errors.Is(err, ErrMixedDomains) {
			t.Fatalf("err = %v, want ErrMixedDomains", err)
		}
		if ts.Len() != 0 {
			t.Errorf("mixed-domain txn leaked a local put")
		}
		return nil
	})
}

func TestTxnUnsupportedRep(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	sv := tspace.New(tspace.KindSharedVar, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		err := Atomic(ctx, func(tx *Txn) error {
			return tx.Put(sv, tspace.Tuple{"x", 1})
		})
		if !errors.Is(err, tspace.ErrTxnUnsupported) {
			t.Fatalf("err = %v, want ErrTxnUnsupported", err)
		}
		return nil
	})
}

// fakeRemote is a RemoteTxn stub for domain-mixing tests; its tuple-space
// methods are never reached.
type fakeRemote struct {
	tspace.TupleSpace
	name string
}

func (f *fakeRemote) TxnDomain() any       { return f }
func (f *fakeRemote) TxnSpaceName() string { return f.name }
func (f *fakeRemote) CommitTxn(ctx *core.Context, ops []tspace.TxnOp) error {
	return nil
}
func (f *fakeRemote) Kind() tspace.Kind { return tspace.KindRemote }

// TestConservationTorture is the in-process half of the ISSUE's torture
// test: N goroutines shuffle value between K account tuples with random
// transactional transfers; the total is conserved exactly, a property
// only atomic multi-tuple commits can deliver. Run with -race.
func TestConservationTorture(t *testing.T) {
	const (
		accounts  = 8
		workers   = 8
		transfers = 200
		initial   = 1000
	)
	vm := testkit.VM(t, 4, 4)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for i := 0; i < accounts; i++ {
			_ = ts.Put(ctx, tspace.Tuple{"acct", i, initial})
		}
		var committed atomic.Int64
		kids := make([]*core.Thread, workers)
		for w := 0; w < workers; w++ {
			seed := int64(w + 1)
			kids[w] = ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < transfers; n++ {
					from := rng.Intn(accounts)
					to := rng.Intn(accounts)
					if from == to {
						to = (to + 1) % accounts
					}
					amount := rng.Intn(50)
					err := Atomic(cc, func(tx *Txn) error {
						ftup, _, err := tx.Get(ts, tspace.Template{"acct", from, tspace.F("n")})
						if err != nil {
							return err
						}
						ttup, _, err := tx.Get(ts, tspace.Template{"acct", to, tspace.F("n")})
						if err != nil {
							return err
						}
						fbal := asBalance(ftup[2])
						tbal := asBalance(ttup[2])
						if fbal < amount {
							return tx.Abort() // insufficient funds
						}
						if err := tx.Put(ts, tspace.Tuple{"acct", from, fbal - amount}); err != nil {
							return err
						}
						return tx.Put(ts, tspace.Tuple{"acct", to, tbal + amount})
					})
					switch {
					case err == nil:
						committed.Add(1)
					case errors.Is(err, ErrAborted):
					default:
						return nil, fmt.Errorf("worker %d transfer %d: %w", seed, n, err)
					}
				}
				return nil, nil
			}, vm.VP(w%4), core.WithStealable(false))
		}
		for _, k := range kids {
			if _, err := ctx.Value(k); err != nil {
				return err
			}
		}
		total := 0
		for i := 0; i < accounts; i++ {
			tup, _, err := ts.TryRd(ctx, tspace.Template{"acct", i, tspace.F("n")})
			if err != nil {
				return fmt.Errorf("account %d missing: %w", i, err)
			}
			total += asBalance(tup[2])
		}
		if total != accounts*initial {
			t.Errorf("total = %d, want %d (conservation violated)", total, accounts*initial)
		}
		if ts.Len() != accounts {
			t.Errorf("len = %d, want %d", ts.Len(), accounts)
		}
		if committed.Load() == 0 {
			t.Error("no transfer ever committed")
		}
		return nil
	})
}

// asBalance normalizes the int/int64 split: local tuples hold int, tuples
// that crossed the wire hold int64.
func asBalance(v core.Value) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	default:
		panic(fmt.Sprintf("balance %T", v))
	}
}

func TestCurrentStatsMoves(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := tspace.New(tspace.KindBag, tspace.Config{})
	before := CurrentStats()
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		return Atomic(ctx, func(tx *Txn) error {
			return tx.Put(ts, tspace.Tuple{"m", 1})
		})
	})
	after := CurrentStats()
	if after.Commits <= before.Commits {
		t.Errorf("commits %d -> %d: no movement", before.Commits, after.Commits)
	}
}
