package tspace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindHash:      "hash",
		KindBag:       "bag",
		KindSet:       "set",
		KindQueue:     "queue",
		KindVector:    "vector",
		KindSharedVar: "shared-variable",
		KindSemaphore: "semaphore",
		Kind(99):      "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestOperationsInvariantOverRepresentation runs the same rd/get/put/spawn
// protocol against every representation that supports general tuples — the
// §4.2 claim that "the operations permitted on tuple-spaces remain
// invariant over their representation".
func TestOperationsInvariantOverRepresentation(t *testing.T) {
	for _, kind := range []Kind{KindHash, KindBag, KindSet, KindQueue} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			vm := testkit.VM(t, 2, 2)
			ts := New(kind, Config{})
			testkit.RunIn(t, vm, func(ctx *core.Context) error {
				// put + rd (non-destructive) + get (destructive).
				if err := ts.Put(ctx, Tuple{"k", 1}); err != nil {
					return err
				}
				if _, b, err := ts.Rd(ctx, Template{"k", F("v")}); err != nil || b["v"] != 1 {
					t.Errorf("rd: %v %v", b, err)
				}
				if _, _, err := ts.Get(ctx, Template{"k", F("v")}); err != nil {
					t.Errorf("get: %v", err)
				}
				if _, _, err := ts.TryRd(ctx, Template{"k", F("v")}); err != ErrNoMatch {
					t.Errorf("TryRd after get: %v", err)
				}
				if _, _, err := ts.TryGet(ctx, Template{"k", F("v")}); err != ErrNoMatch {
					t.Errorf("TryGet after get: %v", err)
				}
				// spawn: active tuples match via thread-value.
				if _, err := ts.Spawn(ctx,
					func(*core.Context) ([]core.Value, error) { return []core.Value{int64(8)}, nil },
				); err != nil {
					return err
				}
				if _, b, err := ts.Get(ctx, Template{F("v")}); err != nil || b["v"] != int64(8) {
					t.Errorf("spawn match: %v %v", b, err)
				}
				return nil
			})
		})
	}
}

func TestVectorRepExtras(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindVector, Config{VectorSize: 4}).(*vectorTS)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		if ts.Size() != 4 {
			t.Errorf("size = %d", ts.Size())
		}
		if _, _, err := ts.TryRd(ctx, Template{0, F("v")}); err != ErrNoMatch {
			t.Errorf("TryRd empty slot: %v", err)
		}
		if _, err := ts.Spawn(ctx, func(*core.Context) ([]core.Value, error) {
			return []core.Value{int64(1)}, nil
		}); err == nil {
			t.Error("vector spawn of 1-tuple should fail (arity 2 required)")
		}
		// Get with concrete index and mismatching value restores the slot.
		if err := ts.Put(ctx, Tuple{2, "val"}); err != nil {
			return err
		}
		if _, _, err := ts.TryGet(ctx, Template{2, "other"}); err != ErrNoMatch {
			t.Errorf("mismatch get: %v", err)
		}
		if _, b, err := ts.TryRd(ctx, Template{2, F("v")}); err != nil || b["v"] != "val" {
			t.Errorf("slot lost after failed get: %v %v", b, err)
		}
		return nil
	})
}

func TestHashValueClasses(t *testing.T) {
	// Keyable immediates hash; aggregates and threads do not (wildcard).
	keyable := []core.Value{nil, true, false, 1, int64(2), uint64(3), 2.5, "s", 'c'}
	for _, v := range keyable {
		if _, ok := hashValue(v); !ok {
			t.Errorf("hashValue(%v) not keyable", v)
		}
	}
	if _, ok := hashValue([]int{1}); ok {
		t.Error("aggregate hashed as keyable")
	}
	// Equal int/int64 values land in the same class for matching.
	h1, _ := hashValue(int(7))
	h2, _ := hashValue(int64(7))
	if h1 != h2 {
		t.Error("int and int64 hash differently")
	}
}

func TestAsInt64Conversions(t *testing.T) {
	for _, v := range []core.Value{int8(1), int16(1), int32(1), int64(1), int(1), uint(1), uint32(1), uint64(1)} {
		if got, ok := asInt64(v); !ok || got != 1 {
			t.Errorf("asInt64(%T) = %d %v", v, got, ok)
		}
	}
	if _, ok := asInt64("no"); ok {
		t.Error("string converted to int64")
	}
}

func TestWaiterUnregister(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindHash, Config{}).(*hashTS)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		// A deposit racing the registration exercises the re-probe path:
		// register happens, the second probe finds the tuple, and the
		// waiter unregisters without ever blocking.
		if err := ts.Put(ctx, Tuple{"x"}); err != nil {
			return err
		}
		if _, _, err := ts.Get(ctx, Template{"x"}); err != nil {
			return err
		}
		if pending := ts.wt.waiters(); pending != 0 {
			t.Errorf("stale waiters: %d", pending)
		}
		return nil
	})
}

// TestNilContextNeedsThread pins the nil-context rule: a probe made with no
// context that meets an active entry (one deposited by Spawn) answers
// ErrNeedsThread and takes nothing, so a probe from a thread still finds
// the entry and demands its value.
func TestNilContextNeedsThread(t *testing.T) {
	seven := func(*core.Context) ([]core.Value, error) { return []core.Value{int64(7)}, nil }
	for _, kind := range []Kind{KindHash, KindBag, KindSet, KindQueue, KindSharedVar} {
		t.Run(kind.String(), func(t *testing.T) {
			vm := testkit.VM(t, 2, 2)
			ts := New(kind, Config{})
			testkit.RunIn(t, vm, func(ctx *core.Context) error {
				if _, err := ts.Spawn(ctx, seven); err != nil {
					return err
				}
				tpl := Template{F("v")}
				if _, _, err := ts.TryGet(nil, tpl); err != ErrNeedsThread {
					t.Errorf("nil-context TryGet: %v, want ErrNeedsThread", err)
				}
				if _, _, err := ts.TryRd(nil, tpl); err != ErrNeedsThread {
					t.Errorf("nil-context TryRd: %v, want ErrNeedsThread", err)
				}
				if n := ts.Len(); n != 1 {
					t.Errorf("Len after nil-context probes = %d, want 1", n)
				}
				if _, b, err := ts.TryGet(ctx, tpl); err != nil || b["v"] != int64(7) {
					t.Errorf("TryGet from a thread: %v %v", b, err)
				}
				return nil
			})
		})
	}
	t.Run("vector", func(t *testing.T) {
		vm := testkit.VM(t, 1, 1)
		ts := New(KindVector, Config{VectorSize: 2})
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			if err := ts.Put(nil, Tuple{1, "old"}); err != nil {
				return err
			}
			if err := ts.Put(nil, Tuple{1, ctx.Fork(seven, nil)}); err != ErrNeedsThread {
				t.Errorf("nil-context Put of a thread: %v, want ErrNeedsThread", err)
			}
			if _, b, err := ts.TryRd(nil, Template{1, F("v")}); err != nil || b["v"] != "old" {
				t.Errorf("slot after refused Put: %v %v", b, err)
			}
			return nil
		})
	})
}
