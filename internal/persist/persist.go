// Package persist implements the substrate hook for long-lived persistent
// objects (§2's program model: "the necessary functionality to handle
// persistent long-lived objects, multiple address spaces"). A Store is a
// named-root table: threads bind values under names that outlive any
// thread, and the whole table can be snapshotted to and restored from a
// byte stream. Roots are ordinary Go values kept alive by the table; Go's
// collector owns the memory.
package persist

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
)

// ErrNoSuchRoot is returned when recalling an unbound name.
var ErrNoSuchRoot = errors.New("persist: no such root")

// ErrUnsupported is returned when a value cannot be made persistent (only
// plain data persists: booleans, numbers, strings, and lists/maps of them).
var ErrUnsupported = errors.New("persist: unsupported value type")

func init() {
	gob.Register([]core.Value{})
	gob.Register(map[string]core.Value{})
}

// Store is a persistent root table.
type Store struct {
	mu    sync.Mutex
	roots map[string]core.Value
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{roots: make(map[string]core.Value)}
}

// validate enforces the persistable-value discipline.
func validate(v core.Value) error {
	switch x := v.(type) {
	case nil, bool, int, int64, float64, string:
		return nil
	case []core.Value:
		for _, e := range x {
			if err := validate(e); err != nil {
				return err
			}
		}
		return nil
	case map[string]core.Value:
		for _, e := range x {
			if err := validate(e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

// Put binds name to value, replacing any previous binding.
func (s *Store) Put(name string, v core.Value) error {
	if err := validate(v); err != nil {
		return err
	}
	if i, ok := v.(int); ok {
		v = int64(i) // normalize so snapshots round-trip
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots[name] = v
	return nil
}

// Get recalls the value bound to name.
func (s *Store) Get(name string) (core.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.roots[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchRoot, name)
	}
	return v, nil
}

// Delete drops a root.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.roots, name)
}

// Names lists the bound roots.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.roots))
	for k := range s.roots {
		out = append(out, k)
	}
	return out
}

// Len reports the number of roots.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.roots)
}

// Snapshot writes the whole table to w (gob encoding).
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	copyMap := make(map[string]core.Value, len(s.roots))
	for k, v := range s.roots {
		copyMap[k] = v
	}
	s.mu.Unlock()
	return gob.NewEncoder(w).Encode(copyMap)
}

// Restore replaces the table with a snapshot read from r.
func (s *Store) Restore(r io.Reader) error {
	var loaded map[string]core.Value
	if err := gob.NewDecoder(r).Decode(&loaded); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots = loaded
	return nil
}
