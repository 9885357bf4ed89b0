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
