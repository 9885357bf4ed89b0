package tspace

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

func TestTxnOpsCodecRoundTrip(t *testing.T) {
	ops := []TxnOp{
		{Kind: TxnTake, Space: "accounts", Ver: 7, Tup: Tuple{"alice", 100}},
		{Kind: TxnRead, Space: "rates", Ver: 0, Tup: Tuple{"usd", 1.5}},
		{Kind: TxnPut, Space: "accounts", Tup: Tuple{"alice", 50, "debited"}},
	}
	b, err := AppendTxnOps(nil, ops)
	if err != nil {
		t.Fatalf("AppendTxnOps: %v", err)
	}
	got, n, err := DecodeTxnOps(b)
	if err != nil {
		t.Fatalf("DecodeTxnOps: %v", err)
	}
	if n != len(b) {
		t.Errorf("consumed %d of %d bytes", n, len(b))
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i, op := range got {
		if op.Kind != ops[i].Kind || op.Space != ops[i].Space || op.Ver != ops[i].Ver {
			t.Errorf("op %d = %+v, want %+v", i, op, ops[i])
		}
		if !sameTuple(op.Tup, ops[i].Tup) {
			t.Errorf("op %d tuple = %v, want %v", i, op.Tup, ops[i].Tup)
		}
	}
	// Truncations must fail cleanly, not panic or over-read.
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := DecodeTxnOps(b[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(b))
		}
	}
}

func TestTxnOpsCodecLimits(t *testing.T) {
	big := make([]TxnOp, MaxTxnOps+1)
	for i := range big {
		big[i] = TxnOp{Kind: TxnPut, Space: "s", Tup: Tuple{i}}
	}
	if _, err := AppendTxnOps(nil, big); err == nil {
		t.Error("oversized log encoded")
	}
	if _, err := AppendTxnOps(nil, []TxnOp{{Kind: 0, Space: "s", Tup: Tuple{1}}}); err == nil {
		t.Error("bad op kind encoded")
	}
}

// applyCommitKinds runs the ApplyCommit contract tests against one
// representation kind.
func applyCommitKinds(t *testing.T, kind Kind) {
	vm := testkit.VM(t, 2, 2)

	t.Run("commit", func(t *testing.T) {
		ts := New(kind, Config{}).(TxnSpace)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			_ = ts.Put(ctx, Tuple{"acct", "a", 100})
			_ = ts.Put(ctx, Tuple{"acct", "b", 0})
			tupA, _, verA, err := ts.TxnProbe(ctx, Template{"acct", "a", F("n")}, nil)
			if err != nil {
				return err
			}
			tupB, _, verB, err := ts.TxnProbe(ctx, Template{"acct", "b", F("n")}, nil)
			if err != nil {
				return err
			}
			err = ApplyCommit(ctx, []CommitOp{
				{Space: ts, Name: "t", Kind: TxnTake, Ver: verA, Tup: tupA},
				{Space: ts, Name: "t", Kind: TxnTake, Ver: verB, Tup: tupB},
				{Space: ts, Name: "t", Kind: TxnPut, Tup: Tuple{"acct", "a", 60}},
				{Space: ts, Name: "t", Kind: TxnPut, Tup: Tuple{"acct", "b", 40}},
			})
			if err != nil {
				t.Fatalf("ApplyCommit: %v", err)
			}
			if _, _, err := ts.TryRd(ctx, Template{"acct", "a", 60}); err != nil {
				t.Errorf("post-commit a: %v", err)
			}
			if _, _, err := ts.TryRd(ctx, Template{"acct", "b", 40}); err != nil {
				t.Errorf("post-commit b: %v", err)
			}
			if ts.Len() != 2 {
				t.Errorf("len = %d, want 2", ts.Len())
			}
			return nil
		})
	})

	t.Run("take-conflict-undoes", func(t *testing.T) {
		ts := New(kind, Config{}).(TxnSpace)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			_ = ts.Put(ctx, Tuple{"x", 1})
			tup, _, ver, err := ts.TxnProbe(ctx, Template{"x", F("v")}, nil)
			if err != nil {
				return err
			}
			// A racing naked Get steals the tuple before commit.
			if _, _, err := ts.TryGet(ctx, Template{"x", 1}); err != nil {
				return err
			}
			_ = ts.Put(ctx, Tuple{"y", 2})
			tupY, _, verY, err := ts.TxnProbe(ctx, Template{"y", F("v")}, nil)
			if err != nil {
				return err
			}
			err = ApplyCommit(ctx, []CommitOp{
				{Space: ts, Name: "t", Kind: TxnTake, Ver: verY, Tup: tupY},
				{Space: ts, Name: "t", Kind: TxnTake, Ver: ver, Tup: tup},
				{Space: ts, Name: "t", Kind: TxnPut, Tup: Tuple{"z", 3}},
			})
			if !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("err = %v, want conflict", err)
			}
			var ce *ConflictError
			if !errors.As(err, &ce) {
				t.Fatalf("err %T is not *ConflictError", err)
			}
			// The failed commit must have rolled back the y take and
			// deposited nothing.
			if _, _, err := ts.TryRd(ctx, Template{"y", 2}); err != nil {
				t.Errorf("undone take missing: %v", err)
			}
			if _, _, err := ts.TryRd(ctx, Template{"z", 3}); !errors.Is(err, ErrNoMatch) {
				t.Errorf("aborted put visible: %v", err)
			}
			return nil
		})
	})

	t.Run("read-validation", func(t *testing.T) {
		ts := New(kind, Config{}).(TxnSpace)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			_ = ts.Put(ctx, Tuple{"r", 1})
			tup, _, ver, err := ts.TxnProbe(ctx, Template{"r", F("v")}, nil)
			if err != nil {
				return err
			}
			// Unchanged bucket: the version fast path admits the read.
			ok := []CommitOp{{Space: ts, Name: "t", Kind: TxnRead, Ver: ver, Tup: tup}}
			if err := ApplyCommit(ctx, ok); err != nil {
				t.Fatalf("clean read commit: %v", err)
			}
			// Removing the read tuple must fail validation even though a
			// fresh identical version counter could never match.
			if _, _, err := ts.TryGet(ctx, Template{"r", 1}); err != nil {
				return err
			}
			err = ApplyCommit(ctx, []CommitOp{{Space: ts, Name: "t", Kind: TxnRead, Ver: ver, Tup: tup}})
			if !errors.Is(err, ErrTxnConflict) {
				t.Fatalf("gone-read commit err = %v, want conflict", err)
			}
			return nil
		})
	})

	t.Run("read-survives-unrelated-churn", func(t *testing.T) {
		ts := New(kind, Config{}).(TxnSpace)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			_ = ts.Put(ctx, Tuple{"stable", 1})
			tup, _, ver, err := ts.TxnProbe(ctx, Template{"stable", F("v")}, nil)
			if err != nil {
				return err
			}
			// Churn the space: versions move, but the read tuple stays.
			for i := 0; i < 32; i++ {
				_ = ts.Put(ctx, Tuple{"churn", i})
			}
			for i := 0; i < 32; i++ {
				_, _, _ = ts.TryGet(ctx, Template{"churn", i})
			}
			err = ApplyCommit(ctx, []CommitOp{{Space: ts, Name: "t", Kind: TxnRead, Ver: ver, Tup: tup}})
			if err != nil {
				t.Fatalf("read of still-present tuple failed: %v", err)
			}
			return nil
		})
	})
}

func TestApplyCommitHash(t *testing.T)  { applyCommitKinds(t, KindHash) }
func TestApplyCommitBag(t *testing.T)   { applyCommitKinds(t, KindBag) }
func TestApplyCommitQueue(t *testing.T) { applyCommitKinds(t, KindQueue) }

func TestTxnProbeSkipMultiplicity(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(TxnSpace)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{"dup", 1})
		_ = ts.Put(ctx, Tuple{"dup", 1})
		one := func() func(Tuple) bool {
			n := 1
			return func(tup Tuple) bool {
				if n > 0 && sameTuple(tup, Tuple{"dup", 1}) {
					n--
					return true
				}
				return false
			}
		}
		// Skipping one claimed instance still finds the second.
		if _, _, _, err := ts.TxnProbe(ctx, Template{"dup", F("v")}, one); err != nil {
			t.Fatalf("probe with one claim: %v", err)
		}
		two := func() func(Tuple) bool {
			n := 2
			return func(tup Tuple) bool {
				if n > 0 && sameTuple(tup, Tuple{"dup", 1}) {
					n--
					return true
				}
				return false
			}
		}
		if _, _, _, err := ts.TxnProbe(ctx, Template{"dup", F("v")}, two); !errors.Is(err, ErrNoMatch) {
			t.Fatalf("probe with both claimed: err = %v, want ErrNoMatch", err)
		}
		return nil
	})
}

func TestTxnWaitBlocksUntilPut(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := New(KindHash, Config{}).(TxnSpace)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		waiter := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			tup, _, _, err := ts.TxnWait(cc, Template{"late", F("v")}, nil)
			if err != nil {
				return nil, err
			}
			// TxnWait must not have consumed the tuple.
			if _, _, err := ts.TryRd(cc, Template{"late", F("v")}); err != nil {
				return nil, err
			}
			return testkit.One(tup[1]), nil
		}, vm.VP(1))
		for i := 0; i < 10; i++ {
			ctx.Yield()
		}
		_ = ts.Put(ctx, Tuple{"late", 9})
		v, err := ctx.Value1(waiter)
		if err != nil {
			return err
		}
		if v != 9 {
			t.Errorf("waited value = %v", v)
		}
		return nil
	})
}

func TestTxnUnsupportedReps(t *testing.T) {
	for _, kind := range []Kind{KindSharedVar, KindSemaphore} {
		if _, ok := New(kind, Config{}).(TxnSpace); ok {
			t.Errorf("%v unexpectedly implements TxnSpace", kind)
		}
	}
}

// TestTxnOnlyProbeCompaction: a workload that only ever reaches the
// presence table through the transactional path — TxnProbe to build the
// read set, ApplyCommit takes to consume — must not accumulate dead
// entries, because commit-time takes mark entries lazily and nothing else
// sweeps. Every removal reclaims through entryList.kill, whichever path
// made it; without that, 10k cycles here leave 10k tombstones in one bin.
func TestTxnOnlyProbeCompaction(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	for _, kind := range []Kind{KindHash, KindBag} {
		t.Run(kind.String(), func(t *testing.T) {
			ts := New(kind, Config{}).(TxnSpace)
			testkit.RunIn(t, vm, func(ctx *core.Context) error {
				for i := 0; i < 10000; i++ {
					if err := ts.Put(ctx, Tuple{"job", i}); err != nil {
						return err
					}
					tup, _, ver, err := ts.TxnProbe(ctx, Template{"job", F("n")}, nil)
					if err != nil {
						return err
					}
					if err := ApplyCommit(ctx, []CommitOp{
						{Space: ts, Name: "jobs", Kind: TxnTake, Ver: ver, Tup: tup},
					}); err != nil {
						return err
					}
				}
				return nil
			})
			if got := maxBinEntries(t, ts); got > 4 {
				t.Errorf("%v bin retains %d entries after 10k txn-only cycles, want ≤ 4 (lazy compaction regressed)", kind, got)
			}
		})
	}
}

// maxBinEntries reaches into a representation's presence table and
// reports its longest entry list, tombstones included.
func maxBinEntries(t *testing.T, ts TxnSpace) int {
	t.Helper()
	longest := 0
	eachList(t, ts, func(l *entryList) {
		l.mu.Lock()
		longest = max(longest, len(l.entries))
		l.mu.Unlock()
	})
	return longest
}
