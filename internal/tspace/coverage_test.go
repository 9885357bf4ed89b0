package tspace

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

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

// TestOperationsInvariantOverRepresentation runs the same operations
// against every representation, each with a sample tuple it accepts — the
// §4.2 claim that "the operations permitted on tuple-spaces remain
// invariant over their representation". Per kind: put, rd, get, the two
// Try probes and spawn; TryRd and Rd through a parent; a parked waiter
// listed under its registry name; and the put and take reaching the
// diagnosis hook.
func TestOperationsInvariantOverRepresentation(t *testing.T) {
	samples := []struct {
		kind Kind
		tup  Tuple        // a tuple the kind accepts; tpl matches it
		tpl  Template     // binds ?v to tup's last field, if it has any
		fill []core.Value // what Spawn's threads return: tup with 8 last
	}{
		{KindHash, Tuple{"k", 1}, Template{"k", F("v")}, []core.Value{"k", 8}},
		{KindBag, Tuple{"k", 1}, Template{"k", F("v")}, []core.Value{"k", 8}},
		{KindSet, Tuple{"k", 1}, Template{"k", F("v")}, []core.Value{"k", 8}},
		{KindQueue, Tuple{"k", 1}, Template{"k", F("v")}, []core.Value{"k", 8}},
		{KindSharedVar, Tuple{"k", 1}, Template{"k", F("v")}, []core.Value{"k", 8}},
		{KindVector, Tuple{2, 1}, Template{2, F("v")}, []core.Value{2, 8}},
		{KindSemaphore, Tuple{}, Template{}, nil},
	}
	hook := &recordingHook{}
	SetDiagHook(hook)
	defer SetDiagHook(nil)
	for _, c := range samples {
		t.Run(c.kind.String(), func(t *testing.T) {
			vm := testkit.VM(t, 2, 2)
			bound := func(b Bindings, want core.Value) bool {
				return len(c.tpl) == 0 || immediateEqual(b["v"], want)
			}
			testkit.RunIn(t, vm, func(ctx *core.Context) error {
				ts := New(c.kind, Config{})
				// put + rd (non-destructive) + get (destructive).
				if err := ts.Put(ctx, c.tup); err != nil {
					return err
				}
				if _, b, err := ts.Rd(ctx, c.tpl); err != nil || !bound(b, 1) {
					t.Errorf("rd: %v %v", b, err)
				}
				if _, b, err := ts.TryRd(ctx, c.tpl); err != nil || !bound(b, 1) {
					t.Errorf("TryRd: %v %v", b, err)
				}
				if _, _, err := ts.Get(ctx, c.tpl); err != nil {
					t.Errorf("get: %v", err)
				}
				if _, _, err := ts.TryRd(ctx, c.tpl); err != ErrNoMatch {
					t.Errorf("TryRd after get: %v", err)
				}
				if _, _, err := ts.TryGet(ctx, c.tpl); err != ErrNoMatch {
					t.Errorf("TryGet after get: %v", err)
				}
				if err := ts.Put(ctx, c.tup); err != nil {
					return err
				}
				if _, b, err := ts.TryGet(ctx, c.tpl); err != nil || !bound(b, 1) || ts.Len() != 0 {
					t.Errorf("TryGet: %v %v, Len %d", b, err, ts.Len())
				}
				// spawn: active tuples match via thread-value.
				thunks := make([]core.Thunk, len(c.fill))
				for i, v := range c.fill {
					thunks[i] = func(*core.Context) ([]core.Value, error) { return testkit.One(v), nil }
				}
				if _, err := ts.Spawn(ctx, thunks...); err != nil {
					t.Errorf("spawn: %v", err)
				} else if _, b, err := ts.Get(ctx, c.tpl); err != nil || !bound(b, 8) {
					t.Errorf("spawn match: %v %v", b, err)
				}

				// A read that finds nothing here falls back to the parent,
				// blocking or not; a take does not.
				parent := New(KindHash, Config{})
				child := New(c.kind, Config{Parent: parent})
				if err := parent.Put(ctx, c.tup); err != nil {
					return err
				}
				if _, b, err := child.TryRd(ctx, c.tpl); err != nil || !bound(b, 1) {
					t.Errorf("TryRd through the parent: %v %v", b, err)
				}
				if _, _, err := child.TryGet(ctx, c.tpl); err != ErrNoMatch {
					t.Errorf("TryGet through the parent: %v, want ErrNoMatch", err)
				}
				tok := NewCancelToken()
				timer := time.AfterFunc(5*time.Second, func() {
					tok.Cancel(errors.New("Rd parked although the parent holds a match"))
				})
				WithCancel(ctx, tok, func() {
					if _, b, err := child.Rd(ctx, c.tpl); err != nil || !bound(b, 1) {
						t.Errorf("Rd through the parent: %v %v", b, err)
					}
				})
				timer.Stop()

				// A parked waiter is listed under the space's registry name;
				// the deposit that wakes it and its take reach the hook.
				name := "invariant-" + c.kind.String()
				reg := NewRegistry(KindHash, Config{})
				named, err := reg.Open(name, c.kind, Config{})
				if err != nil {
					return err
				}
				waiter := ctx.Fork(func(c2 *core.Context) ([]core.Value, error) {
					_, _, err := named.Get(c2, c.tpl)
					return nil, err
				}, nil)
				listed := settle(ctx, func() bool {
					infos := reg.WaiterInfos()
					return len(infos) == 1 && infos[0].Space == name
				})
				if !listed {
					t.Errorf("the parked waiter is not listed under %q: %+v", name, reg.WaiterInfos())
				}
				if err := named.Put(ctx, c.tup); err != nil {
					return err
				}
				if _, err := ctx.Value(waiter); err != nil {
					return err
				}
				if put, take := hook.count(name, DiagPut), hook.count(name, DiagTake); put != 1 || take != 1 {
					t.Errorf("hook saw %d puts and %d takes on %q, want 1 and 1", put, take, name)
				}
				return nil
			})
		})
	}
}

// recordingHook counts key events per space and op.
type recordingHook struct {
	mu     sync.Mutex
	events map[string]int
}

func (h *recordingHook) KeyEvent(space string, op DiagOp, _ int, _ uint64, _ bool, _ core.Value, _ uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.events == nil {
		h.events = map[string]int{}
	}
	h.events[space+"/"+op.String()]++
}

func (h *recordingHook) count(space string, op DiagOp) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events[space+"/"+op.String()]
}

func (*recordingHook) WakeMiss(string) {}
func (*recordingHook) Handoff(string)  {}

func TestVectorRepExtras(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindVector, Config{VectorSize: 4}).(*front)
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		if n := len(ts.hp.(*vectorStore).slots); n != 4 {
			t.Errorf("size = %d", n)
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
	// Keyable immediates class a template; aggregates and threads do not
	// (wildcard). float32 is keyed like float64.
	keyable := []core.Value{nil, true, false, 1, int64(2), uint64(3), 2.5, float32(2.5), "s", 'c'}
	for _, v := range keyable {
		if keyFor(Template{v, F("x")}).wild {
			t.Errorf("keyFor(%T %v) wild, want keyed", v, v)
		}
	}
	for _, v := range []core.Value{[]int{1}, F("x"), (*core.Thread)(nil)} {
		if !keyFor(Template{v, 1}).wild {
			t.Errorf("keyFor(%T) keyed, want wild", v)
		}
	}
	if !keyFor(Template{}).wild {
		t.Error("arity 0 keyed")
	}
	// Equal int/int64 values land in the same class for matching.
	if keyFor(Template{int(7)}) != keyFor(Template{int64(7)}) {
		t.Error("int and int64 class differently")
	}
}

// TestEqualValuesHashAlike: every pair immediateEqual calls equal — the
// integer widths, a uint64 that wraps to a negative int64, -0 and 0 — has
// one Hash and one HashKey. Otherwise a tuple and the template that matches
// it land in different bins, or on different shards.
func TestEqualValuesHashAlike(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []core.Value{
		int(7), int8(7), int16(7), int32(7), int64(7), uint(7), uint8(7), uint16(7), uint32(7), uint64(7),
		int(-1), int64(-1), uint64(math.MaxUint64),
		0.0, negZero, float32(0), float32(negZero), 1.5,
		"7", true, nil,
	}
	equalPairs := 0
	for _, a := range values {
		for _, b := range values {
			if !immediateEqual(a, b) {
				continue
			}
			equalPairs++
			ha, _ := Hash(a)
			if hb, _ := Hash(b); ha != hb {
				t.Errorf("Hash(%T %v) != Hash(%T %v)", a, a, b, b)
			}
			ka, _ := HashKey("s", a, 2)
			if kb, _ := HashKey("s", b, 2); ka != kb {
				t.Errorf("HashKey(%T %v) != HashKey(%T %v)", a, a, b, b)
			}
		}
	}
	if equalPairs <= len(values) {
		t.Fatalf("only %d equal pairs: the table compares nothing but identities", equalPairs)
	}
}

// TestHashKeysWhatTheCodecShips: Hash keys exactly the values the wire
// codec ships, so a class a shard files can always cross the wire.
func TestHashKeysWhatTheCodecShips(t *testing.T) {
	values := []core.Value{
		int(1), int8(1), int16(1), int32(1), int64(1),
		uint(1), uint8(1), uint16(1), uint32(1), uint64(1),
		float32(1.5), 1.5, nil, true, "s",
		(*core.Thread)(nil), []int{1}, struct{ A int }{1},
	}
	for _, v := range values {
		_, hashed := Hash(v)
		_, err := AppendValue(nil, v)
		if hashed != (err == nil) {
			t.Errorf("%T: Hash ok=%v but AppendValue err=%v", v, hashed, err)
		}
	}
}

// TestHashIsPinned: Hash routes keyed tuples across a cluster, so its
// output is fixed across processes and releases. A change to these
// numbers moves every key to another shard.
func TestHashIsPinned(t *testing.T) {
	for _, c := range []struct {
		v    core.Value
		want uint64
	}{
		{int64(7), 0x3c3cbc72bd3c5c83},
		{"ping", 0x8b20688adb934eba},
		{1.5, 0x2da57c318fb6eefc},
		{nil, 0xaf63e34c8601f871},
		{true, 0xaf64094c86023903},
	} {
		if got, ok := Hash(c.v); !ok || got != c.want {
			t.Errorf("Hash(%T %v) = %#x %v, want %#x", c.v, c.v, got, ok, c.want)
		}
	}
}

func TestAsInt64Conversions(t *testing.T) {
	for _, v := range []core.Value{int8(1), int16(1), int32(1), int64(1), int(1), uint(1), uint8(1), uint16(1), uint32(1), uint64(1)} {
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
	ts := New(KindHash, Config{}).(*txnFront)
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
