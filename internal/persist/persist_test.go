package persist

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	if err := s.Put("x", int64(42)); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("x")
	if err != nil || v != int64(42) {
		t.Fatalf("get: %v %v", v, err)
	}
	s.Delete("x")
	if _, err := s.Get("x"); !errors.Is(err, ErrNoSuchRoot) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestIntNormalization(t *testing.T) {
	s := NewStore()
	_ = s.Put("n", 7) // plain int normalizes to int64
	v, _ := s.Get("n")
	if v != int64(7) {
		t.Fatalf("v = %v (%T)", v, v)
	}
}

func TestUnsupportedValues(t *testing.T) {
	s := NewStore()
	if err := s.Put("ch", make(chan int)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	type custom struct{}
	if err := s.Put("c", custom{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	// Nested validation.
	if err := s.Put("lst", []core.Value{1, make(chan int)}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	_ = s.Put("name", "sting")
	_ = s.Put("year", int64(1992))
	_ = s.Put("authors", []core.Value{"jagannathan", "philbin"})
	_ = s.Put("config", map[string]core.Value{"vps": int64(8)})

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if v, _ := fresh.Get("name"); v != "sting" {
		t.Errorf("name = %v", v)
	}
	if v, _ := fresh.Get("year"); v != int64(1992) {
		t.Errorf("year = %v", v)
	}
	authors, _ := fresh.Get("authors")
	if a := authors.([]core.Value); len(a) != 2 || a[0] != "jagannathan" {
		t.Errorf("authors = %v", authors)
	}
	cfg, _ := fresh.Get("config")
	if c := cfg.(map[string]core.Value); c["vps"] != int64(8) {
		t.Errorf("config = %v", cfg)
	}
	names := fresh.Names()
	sort.Strings(names)
	if len(names) != 4 {
		t.Errorf("names = %v", names)
	}
}

func TestThreadsShareRootsAcrossLifetimes(t *testing.T) {
	// The point of persistence: a value outlives the thread that bound it
	// and a later thread (even on another VM run) recalls it.
	vm := testkit.VM(t, 2, 2)
	store := NewStore()
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		w := ctx.Fork(func(*core.Context) ([]core.Value, error) {
			return nil, store.Put("result", int64(99))
		}, nil)
		ctx.Wait(w)
		return nil
	})
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		v, err := store.Get("result")
		if err != nil || v != int64(99) {
			t.Errorf("recall: %v %v", v, err)
		}
		return nil
	})
}
