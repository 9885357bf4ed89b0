package tspace

import (
	"sync"

	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Bag and set

// bagTS is the unindexed representation: one entryList, a flat multiset
// under one mutex. The specializer picks it for small or low-contention
// spaces; with dedup set it is the set representation (duplicate puts
// collapse). The list's version is the transaction layer's fast-path read
// validation; the whole space is one bucket here.
type bagTS struct {
	list   entryList
	dedup  bool
	wt     *waitTable
	parent TupleSpace
	txn    txnMeta
	dname  string // registry name for diagnosis; set once before sharing
}

func newBagTS(cfg Config, dedup bool) *bagTS {
	ts := &bagTS{dedup: dedup, wt: newWaitTable(), parent: cfg.Parent}
	ts.txn.init()
	return ts
}

// Kind implements TupleSpace.
func (ts *bagTS) Kind() Kind {
	if ts.dedup {
		return KindSet
	}
	return KindBag
}

// Waiters implements WaiterCount (queueTS inherits it through embedding).
func (ts *bagTS) Waiters() int { return ts.wt.waiters() }

// WakeStats reports the wait-table wake/miss/handoff counters.
func (ts *bagTS) WakeStats() (wakes, misses, handoffs uint64) { return ts.wt.stats() }

// DiagWaiters implements WaiterIntrospect (queueTS inherits it).
func (ts *bagTS) DiagWaiters() []WaiterInfo { return ts.wt.snapshot() }

// setDiagName implements diagNamed.
func (ts *bagTS) setDiagName(name string) {
	ts.dname = name
	ts.wt.space = name
}

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

// Put implements TupleSpace.
func (ts *bagTS) Put(ctx *core.Context, tup Tuple) error {
	k := keyOf(tup)
	deposited := ts.list.put(tup, k, ts.dedup)
	ts.wt.wakeKey(k)
	if deposited {
		diagKeyEvent(ts.dname, DiagPut, tup, ctx)
	}
	return nil
}

// probe scans oldest-first, which is all the queue's FIFO discipline needs.
func (ts *bagTS) probe(ctx *core.Context, tpl Template, remove bool, skip func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	return ts.list.probe(ctx, tpl, keyFor(tpl), remove, skip, ts.dname)
}

// TxnProbe implements TxnSpace (queueTS inherits it).
func (ts *bagTS) TxnProbe(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var skip func(Tuple) bool
	if newSkip != nil {
		skip = newSkip()
	}
	return ts.probe(ctx, tpl, false, skip)
}

// TxnWait implements TxnSpace.
func (ts *bagTS) TxnWait(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var ver uint64
	tup, bind, err := blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		t, b, v, err := ts.TxnProbe(ctx, tpl, newSkip)
		ver = v
		return t, b, err
	})
	return tup, bind, ver, err
}

func (ts *bagTS) txnMeta() *txnMeta { return &ts.txn }

func (ts *bagTS) txnTake(tup Tuple) bool {
	if !ts.list.takeExact(tup, keyOf(tup)) {
		return false
	}
	diagKeyEvent(ts.dname, DiagTake, tup, nil)
	return true
}

func (ts *bagTS) txnPresent(tup Tuple) bool { return ts.list.has(tup, keyOf(tup)) }

func (ts *bagTS) txnTupleVer(Tuple) uint64 { return ts.list.ver.Load() }

// TryGet implements TupleSpace.
func (ts *bagTS) TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	tup, b, _, err := ts.probe(ctx, tpl, true, nil)
	return tup, b, err
}

// TryRd implements TupleSpace.
func (ts *bagTS) TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	tup, b, _, err := ts.probe(ctx, tpl, false, nil)
	if err == ErrNoMatch && ts.parent != nil {
		return ts.parent.TryRd(ctx, tpl)
	}
	return tup, b, err
}

// Get implements TupleSpace.
func (ts *bagTS) Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		return ts.TryGet(ctx, tpl)
	})
}

// Rd implements TupleSpace.
func (ts *bagTS) Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		tup, b, _, err := ts.probe(ctx, tpl, false, nil)
		if err == ErrNoMatch && ts.parent != nil {
			if ptup, pb, perr := ts.parent.TryRd(ctx, tpl); perr == nil {
				return ptup, pb, nil
			}
		}
		return tup, b, err
	})
}

// Spawn implements TupleSpace.
func (ts *bagTS) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return spawnInto(ctx, ts, thunks)
}

// Len implements TupleSpace.
func (ts *bagTS) Len() int { return ts.list.size() }

// spawnInto is the representation-independent spawn.
func spawnInto(ctx *core.Context, ts TupleSpace, thunks []core.Thunk) ([]*core.Thread, error) {
	tup := make(Tuple, len(thunks))
	threads := make([]*core.Thread, len(thunks))
	for i, th := range thunks {
		t := ctx.Fork(th, nil)
		threads[i] = t
		tup[i] = t
	}
	return threads, ts.Put(ctx, tup)
}

// ---------------------------------------------------------------------------
// Queue

// queueTS specializes producer/consumer spaces: Put appends, Get removes
// the oldest matching tuple. The FIFO discipline is the only difference
// from the bag; the operations are unchanged.
type queueTS struct {
	bagTS
}

func newQueueTS(cfg Config) *queueTS {
	q := &queueTS{}
	q.wt = newWaitTable()
	q.parent = cfg.Parent
	q.txn.init()
	return q
}

// Kind implements TupleSpace.
func (ts *queueTS) Kind() Kind { return KindQueue }

// ---------------------------------------------------------------------------
// Shared variable

// sharedVarTS holds exactly one tuple: Put overwrites, Rd reads (blocking
// until the first Put), Get removes and leaves the variable unset.
type sharedVarTS struct {
	mu     sync.Mutex
	tup    Tuple
	set    bool
	wt     *waitTable
	parent TupleSpace
}

func newSharedVarTS(cfg Config) *sharedVarTS {
	return &sharedVarTS{wt: newWaitTable(), parent: cfg.Parent}
}

// Kind implements TupleSpace.
func (ts *sharedVarTS) Kind() Kind { return KindSharedVar }

// Waiters implements WaiterCount.
func (ts *sharedVarTS) Waiters() int { return ts.wt.waiters() }

// WakeStats reports the wait-table wake/miss/handoff counters.
func (ts *sharedVarTS) WakeStats() (wakes, misses, handoffs uint64) { return ts.wt.stats() }

// DiagWaiters implements WaiterIntrospect.
func (ts *sharedVarTS) DiagWaiters() []WaiterInfo { return ts.wt.snapshot() }

// setDiagName implements diagNamed.
func (ts *sharedVarTS) setDiagName(name string) { ts.wt.space = name }

// Put implements TupleSpace: the new tuple replaces the old value.
func (ts *sharedVarTS) Put(ctx *core.Context, tup Tuple) error {
	ts.mu.Lock()
	ts.tup = tup
	ts.set = true
	ts.mu.Unlock()
	ts.wt.wake(tup)
	return nil
}

func (ts *sharedVarTS) probe(ctx *core.Context, tpl Template, remove bool) (Tuple, Bindings, error) {
	ts.mu.Lock()
	if !ts.set || len(ts.tup) != len(tpl) {
		ts.mu.Unlock()
		return nil, nil, ErrNoMatch
	}
	tup := ts.tup
	ts.mu.Unlock()
	bind, resolved, ok, err := matchTuple(ctx, tpl, tup)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, ErrNoMatch
	}
	if remove {
		ts.mu.Lock()
		stillSame := ts.set && sameTuple(ts.tup, tup)
		if stillSame {
			ts.set = false
			ts.tup = nil
		}
		ts.mu.Unlock()
		if !stillSame {
			return nil, nil, ErrNoMatch
		}
	}
	return resolved, bind, nil
}

// TryGet implements TupleSpace.
func (ts *sharedVarTS) TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return ts.probe(ctx, tpl, true)
}

// TryRd implements TupleSpace.
func (ts *sharedVarTS) TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	tup, b, err := ts.probe(ctx, tpl, false)
	if err == ErrNoMatch && ts.parent != nil {
		return ts.parent.TryRd(ctx, tpl)
	}
	return tup, b, err
}

// Get implements TupleSpace.
func (ts *sharedVarTS) Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		return ts.probe(ctx, tpl, true)
	})
}

// Rd implements TupleSpace.
func (ts *sharedVarTS) Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		tup, b, err := ts.probe(ctx, tpl, false)
		if err == ErrNoMatch && ts.parent != nil {
			if ptup, pb, perr := ts.parent.TryRd(ctx, tpl); perr == nil {
				return ptup, pb, nil
			}
		}
		return tup, b, err
	})
}

// Spawn implements TupleSpace.
func (ts *sharedVarTS) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return spawnInto(ctx, ts, thunks)
}

// Len implements TupleSpace.
func (ts *sharedVarTS) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.set {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Semaphore

// semTS specializes token spaces: tuples carry no information beyond their
// presence, so only a counter is kept. Put is V; Get is P; Rd blocks until
// the count is positive without consuming.
type semTS struct {
	mu     sync.Mutex
	count  int
	wt     *waitTable
	parent TupleSpace
}

func newSemTS(cfg Config) *semTS { return &semTS{wt: newWaitTable(), parent: cfg.Parent} }

// Kind implements TupleSpace.
func (ts *semTS) Kind() Kind { return KindSemaphore }

// Waiters implements WaiterCount.
func (ts *semTS) Waiters() int { return ts.wt.waiters() }

// WakeStats reports the wait-table wake/miss/handoff counters.
func (ts *semTS) WakeStats() (wakes, misses, handoffs uint64) { return ts.wt.stats() }

// DiagWaiters implements WaiterIntrospect.
func (ts *semTS) DiagWaiters() []WaiterInfo { return ts.wt.snapshot() }

// setDiagName implements diagNamed.
func (ts *semTS) setDiagName(name string) { ts.wt.space = name }

// Put implements TupleSpace.
func (ts *semTS) Put(ctx *core.Context, tup Tuple) error {
	ts.mu.Lock()
	ts.count++
	ts.mu.Unlock()
	// Tokens carry no content, so any waiter is compatible: wake exactly one
	// (V unblocks one P); readers chain further wakes through the baton.
	ts.wt.wakeOne()
	return nil
}

func (ts *semTS) probe(remove bool) (Tuple, Bindings, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.count <= 0 {
		return nil, nil, ErrNoMatch
	}
	if remove {
		ts.count--
	}
	return Tuple{}, Bindings{}, nil
}

// TryGet implements TupleSpace.
func (ts *semTS) TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return ts.probe(true)
}

// TryRd implements TupleSpace.
func (ts *semTS) TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return ts.probe(false)
}

// Get implements TupleSpace.
func (ts *semTS) Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		return ts.probe(true)
	})
}

// Rd implements TupleSpace.
func (ts *semTS) Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return blockingLoop(ctx, ts.wt, tpl, func() (Tuple, Bindings, error) {
		return ts.probe(false)
	})
}

// Spawn implements TupleSpace.
func (ts *semTS) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return spawnInto(ctx, ts, thunks)
}

// Len implements TupleSpace.
func (ts *semTS) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.count
}
