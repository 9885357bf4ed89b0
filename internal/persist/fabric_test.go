package persist

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// TestRegistryRoundTrip snapshots a registry with mixed representations
// through the gob stream and restores it into a fresh registry: passive
// tuples and kinds survive, process-local payloads stay behind.
func TestRegistryRoundTrip(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})

	th := vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		jobs, _ := reg.Open("jobs", tspace.KindHash, tspace.Config{})
		done, _ := reg.Open("done", tspace.KindBag, tspace.Config{})
		for i := 0; i < 5; i++ {
			if err := jobs.Put(ctx, tspace.Tuple{"job", i}); err != nil {
				return nil, err
			}
		}
		if err := done.Put(ctx, tspace.Tuple{"result", 3.14}); err != nil {
			return nil, err
		}
		// A process-local payload: must be filtered out, not fail the snapshot.
		return nil, jobs.Put(ctx, tspace.Tuple{"local", make(chan int)})
	})
	if _, err := core.JoinThread(th); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	spaces, tuples, err := SnapshotRegistry(reg, s)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if spaces != 2 || tuples != 6 {
		t.Fatalf("snapshot counts = %d spaces, %d tuples; want 2, 6", spaces, tuples)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	reg2 := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	th = vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		rs, rt, rerr := RestoreRegistry(ctx, reg2, fresh)
		if rerr != nil {
			return nil, rerr
		}
		if rs != 2 || rt != 6 {
			t.Errorf("restore counts = %d spaces, %d tuples; want 2, 6", rs, rt)
		}
		jobs, ok := reg2.Lookup("jobs")
		if !ok || jobs.Len() != 5 {
			t.Fatalf("jobs restored badly: ok=%v len=%d", ok, jobs.Len())
		}
		done, ok := reg2.Lookup("done")
		if !ok || done.Kind() != tspace.KindBag {
			t.Fatalf("done restored badly: ok=%v kind=%v", ok, done.Kind())
		}
		tup, _, gerr := jobs.TryGet(ctx, tspace.Template{"job", 2})
		if gerr != nil {
			t.Errorf("keyed TryGet after restore: %v", gerr)
		} else if tup[1] != 2 && tup[1] != int64(2) {
			t.Errorf("restored tuple = %v", tup)
		}
		return nil, nil
	})
	if _, err := core.JoinThread(th); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryRoundTripEveryKind snapshots one space of each representation
// and restores it into a fresh registry: the semaphore's count, the
// vector's slots, the shared variable and the hash, bag, set and queue
// tuples all survive, the queue in its order.
func TestRegistryRoundTripEveryKind(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	type probe struct {
		tpl  tspace.Template // binds ?v
		want core.Value
	}
	cases := []struct {
		kind   tspace.Kind
		put    []tspace.Tuple
		len    int
		probes []probe // TryGet in order
	}{
		{tspace.KindHash, []tspace.Tuple{{"job", 1}, {"job", 2}}, 2,
			[]probe{{tspace.Template{"job", 2}, nil}, {tspace.Template{"job", tspace.F("v")}, 1}}},
		{tspace.KindBag, []tspace.Tuple{{"b", 1}, {"b", 1}}, 2,
			[]probe{{tspace.Template{"b", tspace.F("v")}, 1}, {tspace.Template{"b", tspace.F("v")}, 1}}},
		{tspace.KindSet, []tspace.Tuple{{"s", 1}, {"s", 1}, {"s", 2}}, 2,
			[]probe{{tspace.Template{"s", 2}, nil}, {tspace.Template{"s", tspace.F("v")}, 1}}},
		{tspace.KindQueue, []tspace.Tuple{{"q", 3}, {"q", 1}, {"q", 2}}, 3,
			[]probe{{tspace.Template{"q", tspace.F("v")}, 3}, {tspace.Template{"q", tspace.F("v")}, 1}, {tspace.Template{"q", tspace.F("v")}, 2}}},
		{tspace.KindSharedVar, []tspace.Tuple{{"v", 1}, {"v", 7}}, 1,
			[]probe{{tspace.Template{"v", tspace.F("v")}, 7}}},
		{tspace.KindVector, []tspace.Tuple{{1, "a"}, {5, "b"}}, 2,
			[]probe{{tspace.Template{5, tspace.F("v")}, "b"}, {tspace.Template{1, tspace.F("v")}, "a"}}},
		{tspace.KindSemaphore, []tspace.Tuple{{}, {}, {}}, 3,
			[]probe{{tspace.Template{}, nil}, {tspace.Template{}, nil}, {tspace.Template{}, nil}}},
	}
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for _, c := range cases {
			ts, err := reg.Open(c.kind.String(), c.kind, tspace.Config{})
			if err != nil {
				return err
			}
			for _, tup := range c.put {
				if err := ts.Put(ctx, tup); err != nil {
					return err
				}
			}
		}
		return nil
	})

	s := NewStore()
	if spaces, _, err := SnapshotRegistry(reg, s); err != nil || spaces != len(cases) {
		t.Errorf("snapshot: %d spaces, %v; want %d", spaces, err, len(cases))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	reg2 := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		if _, _, err := RestoreRegistry(ctx, reg2, fresh); err != nil {
			return err
		}
		for _, c := range cases {
			ts, ok := reg2.Lookup(c.kind.String())
			if !ok || ts.Kind() != c.kind || ts.Len() != c.len {
				t.Errorf("%v not restored whole: ok=%v", c.kind, ok)
				if ok {
					t.Errorf("%v restored as %v holding %d, want %d", c.kind, ts.Kind(), ts.Len(), c.len)
				}
				continue
			}
			for _, p := range c.probes {
				_, b, err := ts.TryGet(ctx, p.tpl)
				if err != nil || (p.want != nil && !tspace.EqualTuple(tspace.Tuple{b["v"]}, tspace.Tuple{p.want})) {
					t.Errorf("%v: TryGet %v = %v %v, want v=%v", c.kind, p.tpl, b, err, p.want)
				}
			}
			if n := ts.Len(); n != 0 {
				t.Errorf("%v: %d tuples left after the probes", c.kind, n)
			}
		}
		return nil
	})
}
