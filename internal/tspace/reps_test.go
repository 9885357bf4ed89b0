package tspace

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/testkit"
)

func TestQueueFIFOOrder(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindQueue, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for i := 0; i < 10; i++ {
			_ = ts.Put(ctx, Tuple{"job", i})
		}
		for i := 0; i < 10; i++ {
			_, b, err := ts.Get(ctx, Template{"job", F("i")})
			if err != nil {
				return err
			}
			if b["i"] != i {
				t.Fatalf("got job %v, want %d (FIFO)", b["i"], i)
			}
		}
		return nil
	})
}

func TestSetDeduplicates(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindSet, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for i := 0; i < 5; i++ {
			_ = ts.Put(ctx, Tuple{"x", 1})
		}
		if ts.Len() != 1 {
			t.Fatalf("len = %d, want 1", ts.Len())
		}
		_ = ts.Put(ctx, Tuple{"x", 2})
		if ts.Len() != 2 {
			t.Fatalf("len = %d, want 2", ts.Len())
		}
		return nil
	})
}

func TestSharedVarOverwrites(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindSharedVar, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{"v", 1})
		_ = ts.Put(ctx, Tuple{"v", 2})
		if ts.Len() != 1 {
			t.Fatalf("len = %d, want 1", ts.Len())
		}
		_, b, err := ts.Rd(ctx, Template{"v", F("x")})
		if err != nil {
			return err
		}
		if b["x"] != 2 {
			t.Fatalf("x = %v, want 2 (last write wins)", b["x"])
		}
		// Get empties the variable.
		if _, _, err := ts.Get(ctx, Template{"v", F("x")}); err != nil {
			return err
		}
		if _, _, err := ts.TryRd(ctx, Template{"v", F("x")}); err != ErrNoMatch {
			t.Fatalf("TryRd after Get = %v, want ErrNoMatch", err)
		}
		return nil
	})
}

func TestSemaphoreRepresentation(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := New(KindSemaphore, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{})
		_ = ts.Put(ctx, Tuple{})
		if ts.Len() != 2 {
			t.Fatalf("count = %d", ts.Len())
		}
		if _, _, err := ts.Get(ctx, Template{}); err != nil {
			return err
		}
		if _, _, err := ts.TryGet(ctx, Template{}); err != nil {
			return err
		}
		if _, _, err := ts.TryGet(ctx, Template{}); err != ErrNoMatch {
			t.Fatalf("empty semaphore TryGet = %v", err)
		}
		// Rd blocks until a token arrives but does not consume it.
		reader := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			_, _, err := ts.Rd(cc, Template{})
			return nil, err
		}, vm.VP(1))
		for i := 0; i < 5; i++ {
			ctx.Yield()
		}
		_ = ts.Put(ctx, Tuple{})
		ctx.Wait(reader)
		if ts.Len() != 1 {
			t.Fatalf("rd consumed the token: count = %d", ts.Len())
		}
		return nil
	})
}

// TestSemaphoreTryP: on a semaphore space holding one token, TryGet (TryP)
// succeeds once, then fails, and succeeds again after a Put (V).
func TestSemaphoreTryP(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindSemaphore, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{})
		if _, _, err := ts.TryGet(ctx, Template{}); err != nil {
			t.Fatalf("TryP with count 1 = %v", err)
		}
		if _, _, err := ts.TryGet(ctx, Template{}); err != ErrNoMatch {
			t.Fatalf("TryP with count 0 = %v, want ErrNoMatch", err)
		}
		_ = ts.Put(ctx, Tuple{})
		if _, _, err := ts.TryGet(ctx, Template{}); err != nil {
			t.Fatalf("TryP after V = %v", err)
		}
		return nil
	})
}

// TestSemaphoreCounting: a semaphore space holding two tokens admits at most
// two of six threads between P (Get) and V (Put), and ends holding two.
func TestSemaphoreCounting(t *testing.T) {
	vm := testkit.VM(t, 4, 4)
	ts := New(KindSemaphore, Config{})
	var inCS, maxInCS atomic.Int64
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for i := 0; i < 2; i++ {
			_ = ts.Put(ctx, Tuple{})
		}
		kids := make([]*core.Thread, 6)
		for i := range kids {
			kids[i] = ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
				if _, _, err := ts.Get(cc, Template{}); err != nil {
					return nil, err
				}
				raiseMax(&maxInCS, inCS.Add(1))
				for j := 0; j < 10; j++ {
					cc.Yield()
				}
				inCS.Add(-1)
				return nil, ts.Put(cc, Tuple{})
			}, vm.VP(i))
		}
		for _, k := range kids {
			if _, err := ctx.Value(k); err != nil {
				return err
			}
		}
		return nil
	})
	if m := maxInCS.Load(); m > 2 {
		t.Fatalf("semaphore admitted %d concurrent holders, want ≤ 2", m)
	}
	if c := ts.Len(); c != 2 {
		t.Fatalf("final count = %d, want 2", c)
	}
}

// raiseMax raises hi to at least v.
func raiseMax(hi *atomic.Int64, v int64) {
	for {
		m := hi.Load()
		if v <= m || hi.CompareAndSwap(m, v) {
			return
		}
	}
}

// Property: a semaphore space's count after arbitrary balanced P/V traffic
// equals its initial value, and it never admits more holders than that.
// Its waits go through blockingLoop's obligation rule, so a waiter woken
// by a V it then loses passes the wake on rather than stranding a parked
// one.
func TestSemaphoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		initial := 1 + rng.Intn(3)
		workers := 2 + rng.Intn(3)
		iters := 1 + rng.Intn(20)
		m := core.NewMachine(core.MachineConfig{Processors: 2})
		defer m.Shutdown()
		vm, err := m.NewVM(core.VMConfig{VPs: workers})
		if err != nil {
			return false
		}
		ts := New(KindSemaphore, Config{})
		var holders, maxHolders atomic.Int64
		_, err = vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			for i := 0; i < initial; i++ {
				_ = ts.Put(ctx, Tuple{})
			}
			kids := make([]*core.Thread, workers)
			for i := range kids {
				kids[i] = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
					for j := 0; j < iters; j++ {
						if _, _, err := ts.Get(c, Template{}); err != nil {
							return nil, err
						}
						raiseMax(&maxHolders, holders.Add(1))
						c.Yield()
						holders.Add(-1)
						if err := ts.Put(c, Tuple{}); err != nil {
							return nil, err
						}
					}
					return nil, nil
				}, vm.VP(i), core.WithStealable(false))
			}
			for _, k := range kids {
				if _, err := ctx.Value(k); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		return err == nil && ts.Len() == initial && maxHolders.Load() <= int64(initial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSemaphorePVAllocatesNothing: an uncontended P (a Get that finds a
// token) and V (Put) in one VP allocate nothing: a token binds no formal, so
// no Bindings are built.
func TestSemaphorePVAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	vm := testkit.VM(t, 1, 1)
	ts := New(KindSemaphore, Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{})
		n := testing.AllocsPerRun(1000, func() {
			if _, _, err := ts.Get(ctx, Template{}); err != nil {
				t.Error(err)
			}
			if err := ts.Put(ctx, Tuple{}); err != nil {
				t.Error(err)
			}
		})
		if n != 0 {
			t.Errorf("P+V allocates %v, want 0", n)
		}
		return nil
	})
}

// TestKindAllocsAtMostHash: each specialized kind allocates no more per
// operation than the hash store running the same pattern, a Put and a
// TryGet with a nil context. The tuples and templates are built beforehand,
// so the counts are the spaces' own.
func TestKindAllocsAtMostHash(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		kind    Kind
		pattern func(ts TupleSpace) func()
	}{
		{KindSemaphore, func(ts TupleSpace) func() {
			tup, tpl := Tuple{"tok"}, Template{"tok"}
			return func() { putTake(t, ts, tup, tpl) }
		}},
		{KindSharedVar, func(ts TupleSpace) func() {
			tup, tpl := Tuple{"v", int64(1000)}, Template{"v", F("x")}
			_ = ts.Put(nil, tup)
			return func() { takePut(t, ts, tup, tpl) }
		}},
		{KindVector, func(ts TupleSpace) func() {
			var tups []Tuple
			var tpls []Template
			for i := 0; i < 64; i++ {
				tups = append(tups, Tuple{i, int64(1000 + i)})
				tpls = append(tpls, Template{i, F("v")})
			}
			i := 0
			return func() {
				i = (i + 1) % 64
				putTake(t, ts, tups[i], tpls[i])
			}
		}},
		{KindQueue, func(ts TupleSpace) func() {
			tup, tpl := Tuple{"job", int64(1000)}, Template{"job", F("n")}
			for i := 0; i < 32; i++ {
				_ = ts.Put(nil, tup)
			}
			return func() { putTake(t, ts, tup, tpl) }
		}},
		{KindSet, func(ts TupleSpace) func() {
			tup, tpl := Tuple{"s", int64(1000)}, Template{"s", F("x")}
			return func() { putTake(t, ts, tup, tpl) }
		}},
	} {
		kind := testing.AllocsPerRun(1000, c.pattern(New(c.kind, Config{})))
		hash := testing.AllocsPerRun(1000, c.pattern(New(KindHash, Config{})))
		t.Logf("%v: %v allocs/op, the hash store %v", c.kind, kind, hash)
		if kind > hash {
			t.Errorf("%v allocates %v per op on its own pattern, the hash store %v", c.kind, kind, hash)
		}
	}
}

func putTake(t *testing.T, ts TupleSpace, tup Tuple, tpl Template) {
	if err := ts.Put(nil, tup); err != nil {
		t.Error(err)
	}
	if _, _, err := ts.TryGet(nil, tpl); err != nil {
		t.Error(err)
	}
}

func takePut(t *testing.T, ts TupleSpace, tup Tuple, tpl Template) {
	if _, _, err := ts.TryGet(nil, tpl); err != nil {
		t.Error(err)
	}
	if err := ts.Put(nil, tup); err != nil {
		t.Error(err)
	}
}

func TestVectorSlots(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	ts := New(KindVector, Config{VectorSize: 8})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		_ = ts.Put(ctx, Tuple{3, "hello"})
		_, b, err := ts.Rd(ctx, Template{3, F("v")})
		if err != nil {
			return err
		}
		if b["v"] != "hello" {
			t.Fatalf("v = %v", b["v"])
		}
		// I-structure flavour: reading an empty slot blocks until written.
		reader := ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
			_, b, err := ts.Rd(cc, Template{5, F("v")})
			if err != nil {
				return nil, err
			}
			return testkit.One(b["v"]), nil
		}, vm.VP(1))
		for i := 0; i < 5; i++ {
			ctx.Yield()
		}
		if reader.Determined() {
			t.Error("rd of empty slot did not block")
		}
		_ = ts.Put(ctx, Tuple{5, "filled"})
		v, err := ctx.Value1(reader)
		if err != nil {
			return err
		}
		if v != "filled" {
			t.Fatalf("reader got %v", v)
		}
		// Formal-index scan finds any full slot.
		_, b2, err := ts.Get(ctx, Template{F("i"), "hello"})
		if err != nil {
			return err
		}
		if b2["i"] != 3 {
			t.Fatalf("scan found index %v, want 3", b2["i"])
		}
		return nil
	})
}

func TestVectorBadTemplates(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	ts := New(KindVector, Config{VectorSize: 4})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		if err := ts.Put(ctx, Tuple{1, 2, 3}); err != ErrBadTemplate {
			t.Errorf("put arity-3 err = %v", err)
		}
		if err := ts.Put(ctx, Tuple{99, "x"}); err != ErrBadTemplate {
			t.Errorf("put out-of-range err = %v", err)
		}
		if _, _, err := ts.TryGet(ctx, Template{"notint", F("v")}); err != ErrBadTemplate {
			t.Errorf("bad index template err = %v", err)
		}
		return nil
	})
}

// Property: for puts and gets of immediate tuples, the bag and hash
// representations consume the same multiset.
func TestBagHashEquivalence(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	f := func(vals []uint8) bool {
		if len(vals) > 24 {
			vals = vals[:24]
		}
		bag := New(KindBag, Config{})
		hash := New(KindHash, Config{Bins: 4})
		ok := true
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			for _, v := range vals {
				_ = bag.Put(ctx, Tuple{"v", int(v % 8)})
				_ = hash.Put(ctx, Tuple{"v", int(v % 8)})
			}
			counts := map[int]int{}
			for {
				_, b, err := bag.TryGet(ctx, Template{"v", F("x")})
				if err != nil {
					break
				}
				counts[b["x"].(int)]++
			}
			for {
				_, b, err := hash.TryGet(ctx, Template{"v", F("x")})
				if err != nil {
					break
				}
				counts[b["x"].(int)]--
			}
			for _, c := range counts {
				if c != 0 {
					ok = false
				}
			}
			if bag.Len() != 0 || hash.Len() != 0 {
				ok = false
			}
			return nil
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
