package tspace

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// hashTS is the general, fully associative representation: the presence
// table HP is an array of bins, each an entryList behind its own mutex (the
// paper's per-bin locking), and the blocked table HB is the shared
// waitTable. Tuples are binned by arity and first keyable field; templates
// whose first position is a formal (or a thread) probe the whole arity
// class.
type hashTS struct {
	bins []entryList
	// wild maps arity → the bin for tuples with unkeyable first fields. A
	// bin appears at its first deposit; readers load the map without a lock
	// and wildMu serializes the copy that adds one.
	wild   atomic.Pointer[map[int]*entryList]
	wildMu sync.Mutex
	wt     *waitTable
	parent TupleSpace
	txn    txnMeta
	dname  string // registry name for diagnosis; set once before sharing
}

func newHashTS(cfg Config) *hashTS {
	n := cfg.Bins
	if n <= 0 {
		n = 64
	}
	ts := &hashTS{
		bins:   make([]entryList, n),
		wt:     newWaitTable(),
		parent: cfg.Parent,
	}
	ts.wild.Store(&map[int]*entryList{})
	ts.txn.init()
	return ts
}

// Kind implements TupleSpace.
func (ts *hashTS) Kind() Kind { return KindHash }

// Waiters implements WaiterCount.
func (ts *hashTS) Waiters() int { return ts.wt.waiters() }

// WakeStats reports the wait-table wake/miss/handoff counters.
func (ts *hashTS) WakeStats() (wakes, misses, handoffs uint64) { return ts.wt.stats() }

// DiagWaiters implements WaiterIntrospect.
func (ts *hashTS) DiagWaiters() []WaiterInfo { return ts.wt.snapshot() }

// setDiagName implements diagNamed.
func (ts *hashTS) setDiagName(name string) {
	ts.dname = name
	ts.wt.space = name
}

// keyedBin indexes the bin of a keyable class.
func (ts *hashTS) keyedBin(k waitKey) int {
	return int((k.sig ^ uint64(k.arity)*0x9e3779b97f4a7c15) % uint64(len(ts.bins)))
}

// binOf is the bin holding tuples of class k, or nil when none was ever
// deposited.
func (ts *hashTS) binOf(k waitKey) *entryList {
	if !k.wild {
		return &ts.bins[ts.keyedBin(k)]
	}
	return (*ts.wild.Load())[k.arity]
}

// binFor is where a tuple of class k is deposited: keyable first fields map
// to a hashed bin; everything else (empty tuples, thread or aggregate first
// fields) goes to the arity's wildcard bin, created here on first use.
func (ts *hashTS) binFor(k waitKey) *entryList {
	if b := ts.binOf(k); b != nil {
		return b
	}
	ts.wildMu.Lock()
	defer ts.wildMu.Unlock()
	old := *ts.wild.Load()
	if b := old[k.arity]; b != nil {
		return b
	}
	grown := make(map[int]*entryList, len(old)+1)
	for a, b := range old {
		grown[a] = b
	}
	b := &entryList{}
	grown[k.arity] = b
	ts.wild.Store(&grown)
	return b
}

// lists calls f on every bin, keyed then wildcard.
func (ts *hashTS) lists(f func(*entryList)) {
	for i := range ts.bins {
		f(&ts.bins[i])
	}
	for _, b := range *ts.wild.Load() {
		f(b)
	}
}

// Put implements TupleSpace.
func (ts *hashTS) Put(ctx *core.Context, tup Tuple) error {
	k := keyOf(tup)
	ts.binFor(k).put(tup, k, false)
	ts.wt.wakeKey(k)
	diagKeyEvent(ts.dname, DiagPut, tup, ctx)
	return nil
}

// probe searches the bins a template can match in: its specific bin (when
// the first position is a concrete immediate) or else every keyed bin, then
// the arity's wildcard bin if one has ever been deposited into. It returns
// the version of the bin the match came from.
func (ts *hashTS) probe(ctx *core.Context, tpl Template, remove bool, skip func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	k := keyFor(tpl)
	scan := ts.bins
	switch {
	case !k.wild:
		i := ts.keyedBin(k)
		scan = ts.bins[i : i+1]
	case k.arity == 0:
		scan = nil // the empty tuple is never keyed
	}
	for i := range scan {
		if tup, bind, ver, err := scan[i].probe(ctx, tpl, k, remove, skip, ts.dname); err != ErrNoMatch {
			return tup, bind, ver, err
		}
	}
	if b := (*ts.wild.Load())[k.arity]; b != nil {
		return b.probe(ctx, tpl, k, remove, skip, ts.dname)
	}
	return nil, nil, 0, ErrNoMatch
}

// TryGet implements TupleSpace.
func (ts *hashTS) TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	tup, bind, _, err := ts.probe(ctx, tpl, true, nil)
	return tup, bind, err
}

// TryRd implements TupleSpace.
func (ts *hashTS) TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	tup, bind, _, err := ts.probe(ctx, tpl, false, nil)
	if err == ErrNoMatch && ts.parent != nil {
		return ts.parent.TryRd(ctx, tpl)
	}
	return tup, bind, err
}

// Get implements TupleSpace.
func (ts *hashTS) Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		return ts.TryGet(ctx, tpl)
	})
}

// Rd implements TupleSpace.
func (ts *hashTS) Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		tup, bind, _, err := ts.probe(ctx, tpl, false, nil)
		if err == ErrNoMatch && ts.parent != nil {
			ptup, pbind, perr := ts.parent.TryRd(ctx, tpl)
			if perr == nil {
				return ptup, pbind, nil
			}
		}
		return tup, bind, err
	})
}

// Spawn implements TupleSpace: each thunk becomes a scheduled thread; the
// deposited tuple holds the threads themselves, so matching can steal
// still-scheduled elements (§4.2's fine-grained synchronization story).
func (ts *hashTS) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return spawnInto(ctx, ts, thunks)
}

// TxnProbe implements TxnSpace: a non-destructive probe that reports the
// matched bucket's version, read before the scan so a commit-time
// comparison is conservative (any change after the read forces the slow
// path, never a wrong fast-path pass).
func (ts *hashTS) TxnProbe(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var skip func(Tuple) bool
	if newSkip != nil {
		skip = newSkip()
	}
	return ts.probe(ctx, tpl, false, skip)
}

// TxnWait implements TxnSpace.
func (ts *hashTS) TxnWait(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var ver uint64
	tup, bind, err := blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		t, b, v, err := ts.TxnProbe(ctx, tpl, newSkip)
		ver = v
		return t, b, err
	})
	return tup, bind, ver, err
}

func (ts *hashTS) txnMeta() *txnMeta { return &ts.txn }

// txnTake removes one entry holding exactly tup (value equality, no
// thread demand — tuples containing threads are outside the transactional
// subset). It bumps the bin version like any removal.
func (ts *hashTS) txnTake(tup Tuple) bool {
	k := keyOf(tup)
	b := ts.binOf(k)
	if b == nil || !b.takeExact(tup, k) {
		return false
	}
	diagKeyEvent(ts.dname, DiagTake, tup, nil)
	return true
}

func (ts *hashTS) txnPresent(tup Tuple) bool {
	k := keyOf(tup)
	b := ts.binOf(k)
	return b != nil && b.has(tup, k)
}

func (ts *hashTS) txnTupleVer(tup Tuple) uint64 {
	if b := ts.binOf(keyOf(tup)); b != nil {
		return b.ver.Load()
	}
	return 0
}

// Len implements TupleSpace.
func (ts *hashTS) Len() int {
	n := 0
	ts.lists(func(b *entryList) { n += b.size() })
	return n
}
