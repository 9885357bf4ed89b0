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
	slots []Tuple // fixed length; a slot holds its passive [index, value] or nil
}

func newVectorStore(n int) *vectorStore {
	if n <= 0 {
		n = 64
	}
	return &vectorStore{slots: make([]Tuple, n)}
}

func (s *vectorStore) indexOf(v core.Value) (int, bool) {
	i, ok := asInt64(v)
	if !ok || i < 0 || i >= int64(len(s.slots)) {
		return 0, false
	}
	return int(i), true
}

// deposit writes the slot [index, value] names. A passive tuple is kept as
// it is, as every store keeps the caller's slice; thread elements are
// demanded first, so a spawned [index, value] fills its slot.
func (s *vectorStore) deposit(ctx *core.Context, tup Tuple, _ waitKey) (bool, bool, error) {
	if len(tup) != 2 {
		return false, false, ErrBadTemplate
	}
	if !passiveTuple(tup) {
		i, err := resolve(ctx, tup[0])
		if err != nil {
			return false, false, err
		}
		v, err := resolve(ctx, tup[1])
		if err != nil {
			return false, false, err
		}
		tup = Tuple{i, v}
	}
	idx, ok := s.indexOf(tup[0])
	if !ok {
		return false, false, ErrBadTemplate
	}
	s.mu.Lock()
	s.slots[idx] = tup
	s.mu.Unlock()
	return true, false, nil
}

func (s *vectorStore) probe(_ *core.Context, tpl Template, _ waitKey, remove bool, _ func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	if len(tpl) != 2 {
		return nil, nil, 0, ErrBadTemplate
	}
	lo, hi := 0, len(s.slots) // a formal index scans for any full slot
	if !isFormal(tpl[0]) {
		idx, ok := s.indexOf(tpl[0])
		if !ok {
			return nil, nil, 0, ErrBadTemplate
		}
		lo, hi = idx, idx+1
	}
	// No slot holds a thread, so a match demands nothing and is decided
	// under the lock. A take hands over the stored tuple, as
	// entryList.probe does; a read gets a copy.
	s.mu.Lock()
	for i := lo; i < hi; i++ {
		tup := s.slots[i]
		if tup != nil && (isFormal(tpl[1]) || immediateEqual(tpl[1], tup[1])) {
			if remove {
				s.slots[i] = nil
			}
			s.mu.Unlock()
			if !remove {
				tup = append(Tuple(nil), tup...)
			}
			return tup, bindings(tpl, tup), 0, nil
		}
	}
	s.mu.Unlock()
	return nil, nil, 0, ErrNoMatch
}

func (s *vectorStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, tup := range s.slots {
		if tup != nil {
			n++
		}
	}
	return n
}

// passive copies out the full slots: depositing them refills the vector.
func (s *vectorStore) passive() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Tuple
	for _, tup := range s.slots {
		if tup != nil {
			out = append(out, append(Tuple(nil), tup...))
		}
	}
	return out
}
