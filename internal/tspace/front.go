package tspace

import "repro/internal/core"

// Every tuple space is one front over one store. The store is the
// representation's presence table HP: how it deposits, probes, counts and
// lists its tuples. The front is what the paper keeps invariant over the
// representation: the operations, the blocked table HB, the parent a read
// falls back to, the registry name diagnosis reports and, over the list and
// hash stores, the transaction hooks.

// store is a representation's HP.
type store interface {
	// deposit adds tup, whose class is k. added is false when nothing was
	// added (a set's duplicate). anyClass is true when the deposit can
	// satisfy a waiter of any class (a semaphore's contentless token), so
	// one waiter of any class is woken rather than one of class k.
	deposit(ctx *core.Context, tup Tuple, k waitKey) (added, anyClass bool, err error)
	// probe finds the oldest match for tpl, whose class is k, removing it
	// when remove is set, and returns the version of the bucket it came from
	// (0 where the store keeps none). skip, which comes only with remove
	// unset, hides matches a transaction has already claimed.
	probe(ctx *core.Context, tpl Template, k waitKey, remove bool, skip func(Tuple) bool) (Tuple, Bindings, uint64, error)
	// size counts the tuples present; passive copies out the passive ones.
	size() int
	passive() []Tuple
}

// txnStore is a store with the commit hooks: takeExact removes one tuple
// equal to tup, whose class is k, has only looks, and version reads the
// version of the bucket tup lives in.
type txnStore interface {
	store
	takeExact(tup Tuple, k waitKey) bool
	has(tup Tuple, k waitKey) bool
	version(k waitKey) uint64
}

// localSpace is either front: what New builds and the registry holds.
type localSpace interface {
	TupleSpace
	Snapshotter
	WaiterCount
	WakeStats() (wakes, misses, handoffs uint64)
	DiagWaiters() []WaiterInfo
}

// front implements TupleSpace over any store.
type front struct {
	hp     store
	kind   Kind
	wt     *waitTable
	parent TupleSpace
}

// txnFront is the front over a store with commit hooks; it implements
// TxnSpace.
type txnFront struct {
	front
	tx  txnStore
	txn txnMeta
}

// newFront builds a space of the given kind; name is its registry name
// ("" when anonymous).
func newFront(kind Kind, cfg Config, name string) localSpace {
	f := front{kind: kind, wt: newWaitTable(name), parent: cfg.Parent}
	var tx txnStore
	switch kind {
	case KindBag, KindSet, KindQueue:
		tx = &listStore{dedup: kind == KindSet}
	case KindVector:
		f.hp = newVectorStore(cfg.VectorSize)
	case KindSharedVar:
		f.hp = &varStore{}
	case KindSemaphore:
		f.hp = &semStore{}
	default:
		f.kind, tx = KindHash, newHashStore(cfg.Bins)
	}
	if tx == nil {
		return &f
	}
	f.hp = tx
	t := &txnFront{front: f, tx: tx}
	t.txn.init()
	return t
}

// Kind implements TupleSpace.
func (f *front) Kind() Kind { return f.kind }

// Len implements TupleSpace.
func (f *front) Len() int { return f.hp.size() }

// PassiveTuples implements Snapshotter.
func (f *front) PassiveTuples() []Tuple { return f.hp.passive() }

// Waiters implements WaiterCount.
func (f *front) Waiters() int { return f.wt.waiters() }

// WakeStats reports the wait-table wake/miss/handoff counters.
func (f *front) WakeStats() (wakes, misses, handoffs uint64) { return f.wt.stats() }

// DiagWaiters snapshots the blocked table for the stall sampler.
func (f *front) DiagWaiters() []WaiterInfo { return f.wt.snapshot() }

// Put implements TupleSpace: deposit, wake one compatible waiter, report.
func (f *front) Put(ctx *core.Context, tup Tuple) error {
	k := keyOf(tup)
	added, anyClass, err := f.hp.deposit(ctx, tup, k)
	if err != nil || !added {
		return err
	}
	if anyClass {
		f.wt.wakeOne()
	} else {
		f.wt.wakeKey(k)
	}
	if b := diagHook.Load(); b != nil {
		b.keyEvent(f.wt.space, DiagPut, tup, k, ctx)
	}
	return nil
}

// TryGet implements TupleSpace.
func (f *front) TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return f.try(ctx, tpl, keyFor(tpl), true)
}

// TryRd implements TupleSpace.
func (f *front) TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return f.try(ctx, tpl, keyFor(tpl), false)
}

// Get implements TupleSpace.
func (f *front) Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return f.wait(ctx, tpl, true)
}

// Rd implements TupleSpace.
func (f *front) Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error) {
	return f.wait(ctx, tpl, false)
}

// try is the one probe behind all four, for tpl of class k: the store, then,
// for a read that found nothing, the parent (§4.2's inheritance; a take
// never reaches the parent). A take is reported to the diagnosis hook.
func (f *front) try(ctx *core.Context, tpl Template, k waitKey, remove bool) (Tuple, Bindings, error) {
	tup, b, _, err := f.hp.probe(ctx, tpl, k, remove, nil)
	switch {
	case err == ErrNoMatch && !remove && f.parent != nil:
		return f.parent.TryRd(ctx, tpl)
	case err == nil && remove:
		diagKeyEvent(f.wt.space, DiagTake, tup, ctx)
	}
	return tup, b, err
}

// wait repeats try, parked in HB between attempts, until it answers
// something other than ErrNoMatch. The class is computed once for all of
// them.
func (f *front) wait(ctx *core.Context, tpl Template, remove bool) (Tuple, Bindings, error) {
	k := keyFor(tpl)
	return blockingLoop(ctx, f.wt, tpl, k, func() (Tuple, Bindings, error) {
		return f.try(ctx, tpl, k, remove)
	})
}

// Spawn implements TupleSpace: each thunk becomes a scheduled thread, and
// the deposited tuple holds the threads themselves, so matching can steal
// still-scheduled elements (§4.2's fine-grained synchronization).
func (f *front) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	tup := make(Tuple, len(thunks))
	threads := make([]*core.Thread, len(thunks))
	for i, th := range thunks {
		threads[i] = ctx.Fork(th, nil)
		tup[i] = threads[i]
	}
	return threads, f.Put(ctx, tup)
}

// TxnProbe implements TxnSpace: a non-destructive probe of this space alone
// (a parent's tuples cannot be validated at commit) that reports the
// matched bucket's version, read before the scan so a commit-time
// comparison is conservative.
func (t *txnFront) TxnProbe(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	return t.txnProbe(ctx, tpl, keyFor(tpl), newSkip)
}

func (t *txnFront) txnProbe(ctx *core.Context, tpl Template, k waitKey, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var skip func(Tuple) bool
	if newSkip != nil {
		skip = newSkip()
	}
	return t.hp.probe(ctx, tpl, k, false, skip)
}

// TxnWait implements TxnSpace.
func (t *txnFront) TxnWait(ctx *core.Context, tpl Template, newSkip func() func(Tuple) bool) (Tuple, Bindings, uint64, error) {
	var ver uint64
	k := keyFor(tpl)
	tup, bind, err := blockingLoop(ctx, t.wt, tpl, k, func() (Tuple, Bindings, error) {
		tup, bind, v, err := t.txnProbe(ctx, tpl, k, newSkip)
		ver = v
		return tup, bind, err
	})
	return tup, bind, ver, err
}

func (t *txnFront) txnMeta() *txnMeta { return &t.txn }

// txnTake removes one entry holding exactly tup, whose class is k (value
// equality, no thread demand: tuples containing threads are outside the
// transactional subset).
func (t *txnFront) txnTake(tup Tuple, k waitKey) bool {
	if !t.tx.takeExact(tup, k) {
		return false
	}
	if b := diagHook.Load(); b != nil {
		b.keyEvent(t.wt.space, DiagTake, tup, k, nil)
	}
	return true
}

func (t *txnFront) txnPresent(tup Tuple, k waitKey) bool { return t.tx.has(tup, k) }

func (t *txnFront) txnTupleVer(k waitKey) uint64 { return t.tx.version(k) }
