package tspace

import (
	"sync"

	"repro/internal/core"
)

// vectorStore is the HP of index-keyed spaces: tuples of the form [index,
// value] become slots of a synchronized vector with I-structure semantics —
// a read of an empty slot blocks until it is written, a take empties the
// slot. Templates must be [concrete-index, x] or [?i, ?x] (scan for any full
// slot); anything else is ErrBadTemplate.
type vectorStore struct {
	mu    sync.Mutex
	slots []vslot // fixed length: only the elements change
}

type vslot struct {
	val  core.Value
	full bool
}

func newVectorStore(n int) *vectorStore {
	if n <= 0 {
		n = 64
	}
	return &vectorStore{slots: make([]vslot, n)}
}

func (s *vectorStore) indexOf(v core.Value) (int, bool) {
	i, ok := asInt64(v)
	if !ok || i < 0 || i >= int64(len(s.slots)) {
		return 0, false
	}
	return int(i), true
}

// deposit writes the slot [index, value] names, demanding thread elements
// first, so a spawned [index, value] fills its slot.
func (s *vectorStore) deposit(ctx *core.Context, tup Tuple, _ waitKey) (bool, bool, error) {
	if len(tup) != 2 {
		return false, false, ErrBadTemplate
	}
	i, err := resolve(ctx, tup[0])
	if err != nil {
		return false, false, err
	}
	v, err := resolve(ctx, tup[1])
	if err != nil {
		return false, false, err
	}
	idx, ok := s.indexOf(i)
	if !ok {
		return false, false, ErrBadTemplate
	}
	s.mu.Lock()
	s.slots[idx] = vslot{val: v, full: true}
	s.mu.Unlock()
	return true, false, nil
}

func (s *vectorStore) probe(ctx *core.Context, tpl Template, _ waitKey, remove bool, _ func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	if len(tpl) != 2 {
		return nil, nil, 0, ErrBadTemplate
	}
	// Case 1: concrete index.
	if !isFormal(tpl[0]) {
		idx, ok := s.indexOf(tpl[0])
		if !ok {
			return nil, nil, 0, ErrBadTemplate
		}
		s.mu.Lock()
		slot := s.slots[idx]
		if !slot.full {
			s.mu.Unlock()
			return nil, nil, 0, ErrNoMatch
		}
		if remove {
			s.slots[idx] = vslot{}
		}
		s.mu.Unlock()
		b, resolved, ok2, err := matchTuple(ctx, tpl, Tuple{idx, slot.val})
		if err != nil {
			return nil, nil, 0, err
		}
		if !ok2 {
			if remove { // value mismatch: restore the slot
				s.mu.Lock()
				s.slots[idx] = slot
				s.mu.Unlock()
			}
			return nil, nil, 0, ErrNoMatch
		}
		return resolved, b, 0, nil
	}
	// Case 2: formal index — scan for any full, matching slot.
	s.mu.Lock()
	snapshot := make([]vslot, len(s.slots))
	copy(snapshot, s.slots)
	s.mu.Unlock()
	for i, slot := range snapshot {
		if !slot.full {
			continue
		}
		b, resolved, ok, err := matchTuple(ctx, tpl, Tuple{i, slot.val})
		if err != nil {
			return nil, nil, 0, err
		}
		if !ok {
			continue
		}
		if remove {
			s.mu.Lock()
			still := s.slots[i].full
			if still {
				s.slots[i] = vslot{}
			}
			s.mu.Unlock()
			if !still {
				continue
			}
		}
		return resolved, b, 0, nil
	}
	return nil, nil, 0, ErrNoMatch
}

func (s *vectorStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, slot := range s.slots {
		if slot.full {
			n++
		}
	}
	return n
}

// passive lists the full slots as [index, value]: depositing them refills
// the vector.
func (s *vectorStore) passive() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Tuple
	for i, slot := range s.slots {
		if !slot.full {
			continue
		}
		if tup := (Tuple{i, slot.val}); passiveTuple(tup) {
			out = append(out, tup)
		}
	}
	return out
}
