package tspace

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// entryList holds resident tuples in insertion order under one mutex: a bin
// of the hash representation, or the whole of a set or queue. Every
// scan, lazy deletion and compaction in the package happens here.
//
// A probe costs what it inspects, not what the list holds. Put stamps each
// entry with its class signature, so an entry of another class is passed
// with an integer compare. A passive entry (no thread element) is matched
// where it lies, under the lock: matching it demands nothing, so it cannot
// block, and nothing is allocated until one entry has won. An active entry
// may block in the demand, so from the first active candidate on the probe
// copies the remaining candidates out and matches them with the lock
// released — the lock is never held across a thread demand.
type entryList struct {
	mu      sync.Mutex
	entries []entry // entries[:head] are dead
	head    int
	dead    int    // tombstones in entries[head:]
	seq     uint64 // sequence number of the next deposit
	// ver counts the list's deposits and removals — the transaction layer's
	// fast-path read validation ("nothing in this bucket moved").
	ver atomic.Uint64
}

// entry is a deposited tuple with the lazy-deletion mark the paper
// describes ("the retrieved tuple is marked as deleted").
type entry struct {
	tup    Tuple
	sig    uint64 // hash of the first field when keyed; with len(tup), the class
	seq    uint64 // names the entry across compactions
	keyed  bool
	active bool // some element is a thread: a match may block
	taken  bool
}

// candidate is an entry copied out for matching with the lock released.
type candidate struct {
	tup Tuple
	seq uint64
}

// put appends tup, whose class is k. With dedup an equal resident tuple
// makes it a no-op; put reports whether the tuple was deposited.
func (l *entryList) put(tup Tuple, k waitKey, dedup bool) bool {
	e := entry{tup: tup, sig: k.sig, keyed: !k.wild, active: !passiveTuple(tup)}
	l.mu.Lock()
	defer l.mu.Unlock()
	if dedup && l.find(tup, k) >= 0 {
		return false
	}
	e.seq = l.seq
	l.seq++
	l.entries = append(l.entries, e)
	l.ver.Add(1)
	return true
}

// probe returns the oldest tuple matching tpl (class k), removing it when
// remove is set, and the list version read before the scan. skip, which
// comes only with remove unset, hides matches the caller has already
// claimed; it runs under the lock and must not call into the space.
func (l *entryList) probe(ctx *core.Context, tpl Template, k waitKey, remove bool,
	skip func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	ver := l.ver.Load()
	var (
		winner  Tuple
		won     bool
		pending []candidate
	)
	l.mu.Lock()
	for i := l.head; i < len(l.entries) && !won; i++ {
		e := &l.entries[i]
		if e.taken || len(e.tup) != len(tpl) || (e.keyed && !k.wild && e.sig != k.sig) {
			continue
		}
		switch {
		case e.active:
			pending = append(pending, candidate{e.tup, e.seq})
		case !groundMatch(tpl, e.tup):
		case pending != nil:
			// An older active candidate may yet match: keep insertion order.
			pending = append(pending, candidate{e.tup, e.seq})
		case skip == nil || !skip(e.tup):
			winner, won = e.tup, true
			if remove {
				l.kill(i)
			}
		}
	}
	l.mu.Unlock()

	if won {
		if remove {
			// kill dropped the list's reference, and a passive tuple needs
			// no resolving: the taker gets the stored tuple itself.
			return winner, bindings(tpl, winner), ver, nil
		}
		// Bindings and the caller's copy are built for this one tuple only.
		bind, resolved, _, err := matchTuple(ctx, tpl, winner)
		return resolved, bind, ver, err
	}
	for _, c := range pending {
		bind, resolved, ok, err := matchTuple(ctx, tpl, c.tup)
		if err != nil {
			return nil, nil, 0, err
		}
		if !ok || !l.claim(c.seq, remove) {
			continue // no match, or another remover won; keep scanning
		}
		if skip != nil && skip(resolved) {
			continue
		}
		return resolved, bind, ver, nil
	}
	return nil, nil, 0, ErrNoMatch
}

// groundMatch reports whether every concrete position of tpl equals the
// same position of the passive tuple tup. It allocates nothing. The first
// field is compared last: the signature has all but vouched for it.
func groundMatch(tpl Template, tup Tuple) bool {
	for i := len(tpl) - 1; i >= 0; i-- {
		if want := tpl[i]; !isFormal(want) && !immediateEqual(want, tup[i]) {
			return false
		}
	}
	return true
}

// claim finds the live entry seq after a match made with the lock released,
// removing it when remove is set; false means a remover got there first.
func (l *entryList) claim(seq uint64, remove bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.head; i < len(l.entries); i++ {
		if e := &l.entries[i]; !e.taken && e.seq == seq {
			if remove {
				l.kill(i)
			}
			return true
		}
	}
	return false
}

// kill tombstones entries[i], dropping its tuple so the taker's copy is the
// only reference, and reclaims space in amortised constant time: the head
// index passes a dead prefix, and the live entries slide down only once the
// dead slots outnumber them. Caller holds the lock.
func (l *entryList) kill(i int) {
	l.entries[i] = entry{taken: true}
	l.dead++
	l.ver.Add(1)
	for l.head < len(l.entries) && l.entries[l.head].taken {
		l.head++
		l.dead--
	}
	if waste := l.head + l.dead; waste > len(l.entries)-waste {
		n := 0
		for _, e := range l.entries[l.head:] {
			if !e.taken {
				l.entries[n] = e
				n++
			}
		}
		clear(l.entries[n:])
		l.entries = l.entries[:n]
		l.head, l.dead = 0, 0
	}
}

// find returns the index of the oldest live entry holding exactly tup
// (class k) by value, or -1. Caller holds the lock.
func (l *entryList) find(tup Tuple, k waitKey) int {
	for i := l.head; i < len(l.entries); i++ {
		e := &l.entries[i]
		if !e.taken && e.sig == k.sig && e.keyed != k.wild && sameTuple(e.tup, tup) {
			return i
		}
	}
	return -1
}

// takeExact removes one entry holding exactly tup; has only looks.
func (l *entryList) takeExact(tup Tuple, k waitKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.find(tup, k)
	if i >= 0 {
		l.kill(i)
	}
	return i >= 0
}

func (l *entryList) has(tup Tuple, k waitKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.find(tup, k) >= 0
}

// size counts the live entries.
func (l *entryList) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries) - l.head - l.dead
}

// passive appends copies of the live passive tuples to out.
func (l *entryList) passive(out []Tuple) []Tuple {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries[l.head:] {
		if !e.taken && !e.active {
			out = append(out, append(Tuple(nil), e.tup...))
		}
	}
	return out
}
