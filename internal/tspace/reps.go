package tspace

import (
	"sync"

	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Set and queue

// listStore is the unindexed HP of the set and the queue: one entryList, a
// flat multiset in insertion order under one mutex. It is kept for those
// two semantics only. A probe takes the oldest match across keys, which is
// the queue's FIFO discipline; with dedup it is the set, where a duplicate
// deposit collapses. The whole space is one bucket for the transaction fast
// path.
type listStore struct {
	list  entryList
	dedup bool
}

func (s *listStore) deposit(_ *core.Context, tup Tuple, k waitKey) (bool, bool, error) {
	return s.list.put(tup, k, s.dedup), false, nil
}

func (s *listStore) probe(ctx *core.Context, tpl Template, k waitKey, remove bool, skip func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	return s.list.probe(ctx, tpl, k, remove, skip)
}

func (s *listStore) size() int                           { return s.list.size() }
func (s *listStore) passive() []Tuple                    { return s.list.passive(nil) }
func (s *listStore) takeExact(tup Tuple, k waitKey) bool { return s.list.takeExact(tup, k) }
func (s *listStore) has(tup Tuple, k waitKey) bool       { return s.list.has(tup, k) }
func (s *listStore) version(waitKey) uint64              { return s.list.ver.Load() }

func sameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !immediateEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Shared variable

// varStore is the shared variable's HP: exactly one tuple. A deposit
// overwrites, a read sees the last write (blocking until the first), and a
// take leaves the variable unset.
type varStore struct {
	mu  sync.Mutex
	tup Tuple
	set bool
}

func (s *varStore) deposit(_ *core.Context, tup Tuple, _ waitKey) (bool, bool, error) {
	s.mu.Lock()
	s.tup, s.set = tup, true
	s.mu.Unlock()
	return true, false, nil
}

func (s *varStore) probe(ctx *core.Context, tpl Template, _ waitKey, remove bool, _ func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	s.mu.Lock()
	if !s.set || len(s.tup) != len(tpl) {
		s.mu.Unlock()
		return nil, nil, 0, ErrNoMatch
	}
	tup := s.tup
	if remove && passiveTuple(tup) {
		// A passive take demands nothing, so it is decided under the lock
		// and hands over the stored tuple itself, as entryList.probe does.
		ok := groundMatch(tpl, tup)
		if ok {
			s.tup, s.set = nil, false
		}
		s.mu.Unlock()
		if !ok {
			return nil, nil, 0, ErrNoMatch
		}
		return tup, bindings(tpl, tup), 0, nil
	}
	s.mu.Unlock()
	bind, resolved, ok, err := matchTuple(ctx, tpl, tup)
	if err != nil {
		return nil, nil, 0, err
	}
	if !ok {
		return nil, nil, 0, ErrNoMatch
	}
	if remove {
		s.mu.Lock()
		stillSame := s.set && sameTuple(s.tup, tup)
		if stillSame {
			s.tup, s.set = nil, false
		}
		s.mu.Unlock()
		if !stillSame {
			return nil, nil, 0, ErrNoMatch
		}
	}
	return resolved, bind, 0, nil
}

func (s *varStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.set {
		return 1
	}
	return 0
}

func (s *varStore) passive() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.set || !passiveTuple(s.tup) {
		return nil
	}
	return []Tuple{append(Tuple(nil), s.tup...)}
}

// ---------------------------------------------------------------------------
// Semaphore

// semStore is the semaphore's HP: tokens carry no information beyond their
// presence, so only a count is kept. A deposit is V, a take is P, and a read
// succeeds while the count is positive. Every waiter is compatible with a
// token: a deposit wakes one waiter of any class (V unblocks one P), and
// readers chain further wakes through the baton.
type semStore struct {
	mu    sync.Mutex
	count int
}

func (s *semStore) deposit(*core.Context, Tuple, waitKey) (bool, bool, error) {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	return true, true, nil
}

func (s *semStore) probe(_ *core.Context, _ Template, _ waitKey, remove bool, _ func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count <= 0 {
		return nil, nil, 0, ErrNoMatch
	}
	if remove {
		s.count--
	}
	// A token binds nothing, so no Bindings are built.
	return Tuple{}, nil, 0, nil
}

func (s *semStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// passive lists one empty tuple per token: depositing them restores the
// count.
func (s *semStore) passive() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Tuple, s.count)
	for i := range out {
		out[i] = Tuple{}
	}
	return out
}
