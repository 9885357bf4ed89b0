package tspace

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// hashStore is the general, fully associative HP: an array of bins, each an
// entryList behind its own mutex (the paper's per-bin locking). Tuples are
// binned by arity and first keyable field; templates whose first position
// is a formal (or a thread) probe the whole arity class.
type hashStore struct {
	bins []entryList
	seed uint64 // mixed into every bin choice: binSeed, or a test's
	// wild maps arity → the bin for tuples with unkeyable first fields. A
	// bin appears at its first deposit; readers load the map without a lock
	// and wildMu serializes the copy that adds one.
	wild   atomic.Pointer[map[int]*entryList]
	wildMu sync.Mutex
}

// binSeed makes which classes share a bin differ from process to process,
// while Hash, and so the classes themselves and cluster routing, do not.
var binSeed = rand.Uint64()

func newHashStore(bins int) *hashStore {
	if bins <= 0 {
		bins = 64
	}
	s := &hashStore{bins: make([]entryList, bins), seed: binSeed}
	s.wild.Store(&map[int]*entryList{})
	return s
}

// keyedBin indexes the bin of a keyable class.
func (s *hashStore) keyedBin(k waitKey) int { return binIndex(k, s.seed, len(s.bins)) }

// binIndex picks one of n bins for class k, and so HB's stripe too: the
// seed and arity are mixed into the class's Hash by a multiply-xorshift
// finalizer, so whether two classes share a bin depends on the seed (with a
// plain xor it would not).
func binIndex(k waitKey, seed uint64, n int) int {
	x := k.sig ^ seed ^ uint64(k.arity)*0x9e3779b97f4a7c15
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return int((x ^ x>>33) % uint64(n))
}

// binOf is the bin holding tuples of class k, or nil when none was ever
// deposited.
func (s *hashStore) binOf(k waitKey) *entryList {
	if !k.wild {
		return &s.bins[s.keyedBin(k)]
	}
	return (*s.wild.Load())[k.arity]
}

// binFor is where a tuple of class k is deposited: keyable first fields map
// to a hashed bin; everything else (empty tuples, thread or aggregate first
// fields) goes to the arity's wildcard bin, created here on first use.
func (s *hashStore) binFor(k waitKey) *entryList {
	if b := s.binOf(k); b != nil {
		return b
	}
	s.wildMu.Lock()
	defer s.wildMu.Unlock()
	old := *s.wild.Load()
	if b := old[k.arity]; b != nil {
		return b
	}
	grown := make(map[int]*entryList, len(old)+1)
	for a, b := range old {
		grown[a] = b
	}
	b := &entryList{}
	grown[k.arity] = b
	s.wild.Store(&grown)
	return b
}

// lists calls f on every bin, keyed then wildcard.
func (s *hashStore) lists(f func(*entryList)) {
	for i := range s.bins {
		f(&s.bins[i])
	}
	for _, b := range *s.wild.Load() {
		f(b)
	}
}

func (s *hashStore) deposit(_ *core.Context, tup Tuple, k waitKey) (bool, bool, error) {
	s.binFor(k).put(tup, k, false)
	return true, false, nil
}

// probe searches the bins a template can match in: its specific bin (when
// the first position is a concrete immediate) or else every keyed bin, then
// the arity's wildcard bin if one has ever been deposited into. It returns
// the version of the bin the match came from.
func (s *hashStore) probe(ctx *core.Context, tpl Template, k waitKey, remove bool, skip func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	scan := s.bins
	switch {
	case !k.wild:
		i := s.keyedBin(k)
		scan = s.bins[i : i+1]
	case k.arity == 0:
		scan = nil // the empty tuple is never keyed
	}
	for i := range scan {
		if tup, bind, ver, err := scan[i].probe(ctx, tpl, k, remove, skip); err != ErrNoMatch {
			return tup, bind, ver, err
		}
	}
	if b := (*s.wild.Load())[k.arity]; b != nil {
		return b.probe(ctx, tpl, k, remove, skip)
	}
	return nil, nil, 0, ErrNoMatch
}

func (s *hashStore) size() int {
	n := 0
	s.lists(func(b *entryList) { n += b.size() })
	return n
}

func (s *hashStore) passive() []Tuple {
	var out []Tuple
	s.lists(func(b *entryList) { out = b.passive(out) })
	return out
}

// takeExact bumps the bin version like any removal.
func (s *hashStore) takeExact(tup Tuple, k waitKey) bool {
	b := s.binOf(k)
	return b != nil && b.takeExact(tup, k)
}

func (s *hashStore) has(tup Tuple, k waitKey) bool {
	b := s.binOf(k)
	return b != nil && b.has(tup, k)
}

func (s *hashStore) version(k waitKey) uint64 {
	if b := s.binOf(k); b != nil {
		return b.ver.Load()
	}
	return 0
}
