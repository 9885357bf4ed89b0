package tspace

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
)

// TestProbeAllocsIndependentOfDepth: a rejected candidate allocates
// nothing, so a miss is free and a hit costs the same — its own Bindings and
// tuple copy — with one resident tuple or 4096 under the same key, whether
// the match is the oldest entry or the newest.
func TestProbeAllocsIndependentOfDepth(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	measure := func(kind Kind, depth int) (get, rd, miss float64) {
		ts := New(kind, Config{})
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			for i := 0; i < depth; i++ {
				if err := ts.Put(ctx, Tuple{"k", int64(i)}); err != nil {
					return err
				}
			}
			oldest, newest, absent := Template{"k", F("n")}, Template{"k", int64(depth - 1)}, Template{"k", int64(-1)}
			get = testing.AllocsPerRun(200, func() {
				tup, _, err := ts.TryGet(ctx, oldest)
				if err != nil {
					t.Errorf("TryGet hit: %v", err)
					return
				}
				_ = ts.Put(ctx, tup) // a passive Put allocates nothing: the entry lives in the list
			})
			rd = testing.AllocsPerRun(200, func() {
				if _, _, err := ts.TryRd(ctx, newest); err != nil {
					t.Errorf("TryRd hit: %v", err)
				}
			})
			miss = testing.AllocsPerRun(200, func() {
				if _, _, err := ts.TryGet(ctx, absent); err != ErrNoMatch {
					t.Errorf("TryGet miss: %v", err)
				}
			})
			return nil
		})
		return get, rd, miss
	}
	for _, kind := range []Kind{KindHash, KindBag} {
		get1, rd1, miss1 := measure(kind, 1)
		getN, rdN, missN := measure(kind, 4096)
		if miss1 != 0 || missN != 0 {
			t.Errorf("%v: a miss allocates %v at depth 1 and %v at depth 4096, want 0", kind, miss1, missN)
		}
		if get1 != getN || rd1 != rdN {
			t.Errorf("%v: hit allocations grow with depth: TryGet %v → %v, TryRd %v → %v", kind, get1, getN, rd1, rdN)
		}
	}
}

// TestProbeTimeIndependentOfDepth is the wall-clock side of the same
// property: taking the oldest tuple under a key and restoring it costs about
// the same with 64 resident tuples under that key or 2,048. A scan that
// inspects every candidate would cost 32× (17.7 µs vs 289 ns was measured
// before the entry list); the bound is 8×, single-threaded and best of five
// a side, so a loaded box does not trip it.
func TestProbeTimeIndependentOfDepth(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	perPair := func(depth int) time.Duration {
		const pairs = 2000
		ts := New(KindHash, Config{})
		best := time.Duration(math.MaxInt64)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			for i := 0; i < depth; i++ {
				if err := ts.Put(ctx, Tuple{"k", int64(i)}); err != nil {
					return err
				}
			}
			for rep := 0; rep < 5; rep++ {
				start := time.Now()
				for i := 0; i < pairs; i++ {
					tup, _, err := ts.TryGet(ctx, Template{"k", F("n")})
					if err != nil {
						return err
					}
					if err := ts.Put(ctx, tup); err != nil {
						return err
					}
				}
				best = min(best, time.Since(start)/pairs)
			}
			return nil
		})
		return best
	}
	shallow, deep := perPair(64), perPair(2048)
	t.Logf("TryGet+Put: %v at depth 64, %v at depth 2048", shallow, deep)
	if deep > 8*shallow {
		t.Errorf("TryGet+Put costs %v at depth 2048, %v at depth 64: more than 8×", deep, shallow)
	}
}

// TestSharedBinAllocsMatchDefault: the master/slave shape under
// Config{Bins: 1}, where "task" and "result" share the one bin, allocates
// per take exactly what it does with the default bins — the other class is
// passed on its signature, never matched. Bins: 1 is the paper's
// global-mutex ablation, not a second allocation regime.
func TestSharedBinAllocsMatchDefault(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	perTake := func(cfg Config) (allocs float64) {
		ts := New(KindHash, cfg)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			const burst = 512
			for i := 0; i < burst; i++ {
				_ = ts.Put(ctx, Tuple{"result", int64(i), int64(i * i)})
				_ = ts.Put(ctx, Tuple{"task", int64(i)})
			}
			task := Template{"task", F("n")}
			result := Template{"result", F("n"), F("sq")}
			allocs = testing.AllocsPerRun(burst/2, func() {
				_, b, err := ts.TryGet(ctx, task)
				if err != nil {
					t.Errorf("take task: %v", err)
					return
				}
				n := b["n"].(int64)
				_ = ts.Put(ctx, Tuple{"result", n, n * n})
				if _, _, err := ts.TryGet(ctx, result); err != nil {
					t.Errorf("take result: %v", err)
				}
			})
			return nil
		})
		return allocs
	}
	if one, def := perTake(Config{Bins: 1}), perTake(Config{}); one != def {
		t.Errorf("allocations per master/slave step: %v with one bin, %v with the default bins", one, def)
	}
}

// modelValues is the field universe of the model check: every pair the
// matcher calls equal (int widths, -0 and 0) must also hash alike, or a
// keyed probe would pass its match by on the signature.
var modelValues = []core.Value{
	"a", "b", 1, int64(1), int32(2), uint64(2), 3.5, 0.0, math.Copysign(0, -1), true, nil,
}

// TestEntryListAgainstModel drives random Put/TryGet/TryRd/txnTake/
// txnPresent sequences against a plain slice in insertion order. Results,
// bindings, order and Len must agree for every list-backed representation,
// across the compactions the alternating fill and drain phases force.
func TestEntryListAgainstModel(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	for _, kind := range []Kind{KindHash, KindBag, KindSet, KindQueue} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				testkit.RunIn(t, vm, func(ctx *core.Context) error {
					return runModel(t, ctx, kind, rand.New(rand.NewSource(seed)))
				})
			})
		}
	}
}

func runModel(t *testing.T, ctx *core.Context, kind Kind, rng *rand.Rand) error {
	ts := New(kind, Config{Bins: 4}).(TxnSpace)
	var model []Tuple
	value := func() core.Value { return modelValues[rng.Intn(len(modelValues))] }
	randTuple := func() Tuple {
		tup := make(Tuple, 1+rng.Intn(3))
		tup[0] = value()
		for i := 1; i < len(tup); i++ {
			tup[i] = rng.Intn(3)
		}
		return tup
	}
	firstEqual := func(tup Tuple) int {
		for i, m := range model {
			if sameTuple(m, tup) {
				return i
			}
		}
		return -1
	}
	compactions, lastCap := 0, 0
	for step := 0; step < 6000; step++ {
		filling := step/500%2 == 0
		switch op := rng.Intn(10); {
		case op < 2 || (filling && op < 7): // Put
			tup := randTuple()
			if err := ts.Put(ctx, tup); err != nil {
				return err
			}
			if kind != KindSet || firstEqual(tup) < 0 {
				model = append(model, tup)
			}
		case op < 8: // TryGet or TryRd
			tpl := Template(randTuple())
			for i := range tpl {
				if rng.Intn(2) == 0 {
					tpl[i] = F(fmt.Sprint("f", i))
				}
			}
			remove := rng.Intn(3) > 0
			want := -1
			for i, m := range model {
				if len(m) == len(tpl) && groundMatch(tpl, m) {
					want = i
					break
				}
			}
			probe := ts.TryRd
			if remove {
				probe = ts.TryGet
			}
			got, bind, err := probe(ctx, tpl)
			if want < 0 {
				if err != ErrNoMatch {
					t.Fatalf("step %d: %v matched %v (%v), model has no match", step, tpl, got, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: %v: %v, model matches %v", step, tpl, err, model[want])
			}
			if kind == KindHash && isFormal(tpl[0]) {
				// The arity class is searched bin by bin: any match is right.
				if want = firstEqual(got); want < 0 || !groundMatch(tpl, got) {
					t.Fatalf("step %d: %v returned %v, which is not a resident match", step, tpl, got)
				}
			} else if !sameTuple(got, model[want]) {
				t.Fatalf("step %d: %v returned %v, the oldest match is %v", step, tpl, got, model[want])
			}
			for i, f := range tpl {
				if f, ok := f.(Formal); ok && !immediateEqual(bind[f.Name], got[i]) {
					t.Fatalf("step %d: binding %s = %v, tuple has %v", step, f.Name, bind[f.Name], got[i])
				}
			}
			if remove {
				model = append(model[:want], model[want+1:]...)
			}
		case op == 8: // commit-time take by value
			tup := randTuple()
			i := firstEqual(tup)
			if took := ts.txnTake(tup); took != (i >= 0) {
				t.Fatalf("step %d: txnTake(%v) = %v, model index %d", step, tup, took, i)
			}
			if i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
		default:
			tup := randTuple()
			if got, want := ts.txnPresent(tup), firstEqual(tup) >= 0; got != want {
				t.Fatalf("step %d: txnPresent(%v) = %v, want %v", step, tup, got, want)
			}
		}
		if ts.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, ts.Len(), len(model))
		}
		slots := listSlots(t, ts)
		if slots < lastCap {
			compactions++
		}
		if lastCap = slots; slots > 2*len(model) {
			t.Fatalf("step %d: %d slots for %d live tuples: dead slots outnumber live ones", step, slots, len(model))
		}
	}
	if compactions == 0 {
		t.Error("no compaction in 6000 steps: the drain phases did not exercise it")
	}
	resident := ts.(Snapshotter).PassiveTuples()
	if len(resident) != len(model) {
		t.Fatalf("snapshot holds %d tuples, model %d", len(resident), len(model))
	}
	for i, tup := range resident {
		if kind == KindHash {
			if firstEqual(tup) < 0 {
				t.Fatalf("snapshot tuple %v is not in the model", tup)
			}
		} else if !sameTuple(tup, model[i]) {
			t.Fatalf("snapshot[%d] = %v, model has %v: insertion order lost", i, tup, model[i])
		}
	}
	return nil
}

// eachList calls f on every entryList of a list-backed representation.
func eachList(t *testing.T, ts TupleSpace, f func(*entryList)) {
	t.Helper()
	switch x := ts.(type) {
	case *hashTS:
		x.lists(f)
	case *bagTS:
		f(&x.list)
	case *queueTS:
		f(&x.list)
	default:
		t.Fatalf("eachList: %T is not built on entryLists", ts)
	}
}

// listSlots sums the slots, dead and live, of a representation's lists.
func listSlots(t *testing.T, ts TupleSpace) int {
	n := 0
	eachList(t, ts, func(l *entryList) {
		l.mu.Lock()
		n += len(l.entries)
		l.mu.Unlock()
	})
	return n
}

// TestDemandOutsideBinLock: a probe that meets an active tuple demands its
// thread with the list unlocked. The demander steals a delayed thread whose
// thunk parks inside the demand; meanwhile another thread deposits into and
// takes from the same list. Were the lock held across the demand, that
// thread would never finish.
func TestDemandOutsideBinLock(t *testing.T) {
	for _, ts := range []TupleSpace{New(KindHash, Config{Bins: 1}), New(KindBag, Config{})} {
		t.Run(ts.Kind().String(), func(t *testing.T) {
			vm := testkit.VM(t, 2, 2)
			done := make(chan error, 1) // the root thread's one result
			go func() {
				_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
					var demander atomic.Pointer[core.TCB] // set once the demand is under way
					var release atomic.Bool
					lazy := ctx.CreateThread(func(c *core.Context) ([]core.Value, error) {
						demander.Store(c.TCB()) // stolen: this is the prober's own TCB
						c.BlockUntil(release.Load)
						return testkit.One(5), nil
					})
					if err := ts.Put(ctx, Tuple{"cell", lazy}); err != nil {
						return nil, err
					}
					peer := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
						for demander.Load() == nil {
							c.Yield()
						}
						defer func() {
							release.Store(true)
							core.WakeTCB(demander.Load())
						}()
						if err := ts.Put(c, Tuple{"cell", 7}); err != nil {
							return nil, err
						}
						if err := ts.Put(c, Tuple{"other", 1}); err != nil {
							return nil, err
						}
						if _, _, err := ts.Get(c, Template{"other", F("n")}); err != nil {
							return nil, err
						}
						if n := ts.Len(); n != 2 {
							return nil, fmt.Errorf("Len = %d during the demand, want 2", n)
						}
						return nil, nil
					}, nil)
					_, b, err := ts.Get(ctx, Template{"cell", F("v")})
					if err != nil {
						return nil, err
					}
					if b["v"] != 5 {
						return nil, fmt.Errorf("v = %v, want the demanded thread's 5 (the oldest match)", b["v"])
					}
					_, err = ctx.Value(peer)
					return nil, err
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Put/Get on the list never finished: its lock is held across a thread demand")
			}
		})
	}
}
