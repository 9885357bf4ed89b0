package tspace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// TupleSpace is the operation set of every tuple space — the paper's point
// that "the operations permitted on tuple-spaces remain invariant over
// their representation", which the one front over every store makes
// literal (front.go). Tuple spaces are first-class, denotable objects;
// operations are expressions returning bindings, not statements.
type TupleSpace interface {
	// Put deposits a tuple (the paper's put/out). Depositing unblocks any
	// matching readers. A local space keeps the caller's slice, not a copy,
	// and a Get or TryGet that takes a passive tuple may receive that very
	// slice: the caller must not modify tup once it is put.
	Put(ctx *core.Context, tup Tuple) error
	// Get atomically removes a matching tuple, blocking until one exists
	// (the paper's get/remove; Linda's in). The Bindings may be nil when the
	// template binds no formal (a semaphore's token); callers only read them.
	Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error)
	// Rd returns a matching tuple without removing it, blocking until one
	// exists. Its Bindings may be nil as Get's may.
	Rd(ctx *core.Context, tpl Template) (Tuple, Bindings, error)
	// TryGet and TryRd are the non-blocking probes; they return ErrNoMatch
	// when nothing matches. Put and the probes accept a nil ctx; they then
	// return ErrNeedsThread rather than demand a thread element.
	TryGet(ctx *core.Context, tpl Template) (Tuple, Bindings, error)
	TryRd(ctx *core.Context, tpl Template) (Tuple, Bindings, error)
	// Spawn deposits a tuple whose elements are threads evaluating the
	// given thunks (the paper's spawn). Matching demands the threads,
	// stealing scheduled ones.
	Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error)
	// Len reports how many tuples are present (passive and active).
	Len() int
	// Kind names the representation.
	Kind() Kind
}

// Kind names a tuple-space representation.
type Kind int

// Representations a space is built with (§4.2: "tuple-spaces can be
// specialized as synchronized vectors, queues, sets, shared variables,
// semaphores, or bags"). A bag is the hash store under its own name.
const (
	KindHash Kind = iota
	KindBag
	KindSet
	KindQueue
	KindVector
	KindSharedVar
	KindSemaphore
)

// KindRemote marks a proxy for a space living in another process (the
// remote fabric's client handle); its representation is the server's
// choice and unknown to the proxy.
const KindRemote Kind = -1

func (k Kind) String() string {
	switch k {
	case KindHash:
		return "hash"
	case KindBag:
		return "bag"
	case KindSet:
		return "set"
	case KindQueue:
		return "queue"
	case KindVector:
		return "vector"
	case KindSharedVar:
		return "shared-variable"
	case KindSemaphore:
		return "semaphore"
	case KindRemote:
		return "remote"
	default:
		return "unknown"
	}
}

// ParseKind is String's inverse for the constructible kinds — the form
// flags and snapshots carry.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "hash", "":
		return KindHash, nil
	case "bag":
		return KindBag, nil
	case "set":
		return KindSet, nil
	case "queue":
		return KindQueue, nil
	case "vector":
		return KindVector, nil
	case "shared-variable":
		return KindSharedVar, nil
	case "semaphore":
		return KindSemaphore, nil
	default:
		return 0, fmt.Errorf("tspace: unknown space kind %q", s)
	}
}

// Config parameterizes tuple-space construction.
type Config struct {
	// Bins is the number of presence-table bins for the hash store (the
	// hash and bag kinds), and of its blocked-table stripes; each bin and each
	// stripe has its own mutex so multiple producers and consumers access
	// both tables concurrently (default 64). One bin reproduces the paper's
	// global-mutex baseline for both tables, for the ablation.
	Bins int
	// Parent, when set, is consulted by Rd (non-destructively) when no
	// local tuple matches — the inheritance hierarchy of §4.2.
	Parent TupleSpace
	// VectorSize sizes the vector representation.
	VectorSize int
}

// New creates a tuple space with the given representation: the one front
// over that representation's store (front.go).
func New(kind Kind, cfg Config) TupleSpace { return newFront(kind, cfg, "") }

// waitKey is the class signature of a template or a tuple: arity plus the
// Hash of a ground (concrete, keyable) first field. wild covers a first
// position that is a formal or an unkeyable value, and arity 0. Blocked
// templates are indexed by it for targeted wakeups — a wild waiter is
// compatible with any deposit of its arity — and resident entries carry it
// so a probe passes the other classes in its bin with an integer compare.
type waitKey struct {
	arity int
	sig   uint64
	wild  bool
}

// keyFor classifies a template into its wait class. The front calls it once
// per operation and hands the key to every probe, to HB and to diagnosis.
func keyFor(tpl Template) waitKey {
	if len(tpl) > 0 && !isFormal(tpl[0]) {
		if h, ok := Hash(tpl[0]); ok {
			return waitKey{arity: len(tpl), sig: h}
		}
	}
	return waitKey{arity: len(tpl), wild: true}
}

// keyOf classifies a tuple; tuples hold no formals, so the rule is keyFor's.
func keyOf(tup Tuple) waitKey { return keyFor(Template(tup)) }

// tsWaiter is a blocked reader in HB.
type tsWaiter struct {
	tcb  *core.TCB
	key  waitKey
	seq  uint64
	woke atomic.Bool
	// Diagnosis fields, stamped at registration (the blocking slow path):
	// when this wait began, the template's ground first field (nil for wild
	// classes), and the owning thread — the stall sampler reads them
	// through waitTable.snapshot.
	since  time.Time
	first  core.Value
	thread *core.Thread
	// Stamped under the lock of the stripe that pops the waiter: the deposit
	// class it must hand off if its re-probe fails, whether the deposit could
	// match any class (wakeOne), and the registration cutoff bounding the
	// baton chain. obligated is false for herd wakes, which have no
	// single-wake obligation to pass on.
	wokeKey   waitKey
	wokeAny   bool
	wokeSeq   uint64
	obligated bool
}

// waitTable is HB: blocked processes indexed by (arity, ground-prefix
// signature) so a deposit wakes one compatible waiter instead of the whole
// arity class. A woken waiter that loses the re-probe (or leaves for any
// other reason while holding the wake) passes the baton to the next waiter
// registered before the deposit, so single wakeups never strand a tuple.
//
// HB is striped as HP is binned: a class lives in the stripe its hash-store
// bin would be (the other kinds have one stripe, and Bins: 1 makes both
// tables one mutex), so waits and deposits on different classes share no
// lock. The stripes are allocated at the first registration. Registration
// order is one atomic sequence per table, so "registered before the
// deposit" still bounds a baton that crosses from a keyed class to its
// arity's wild class in another stripe. A deposit takes no lock when the
// stripes it could wake in count no waiters: a waiter raises its stripe's
// count before its re-probe and a deposit reads it after depositing, and
// both sides pass through the store's synchronization, so either the
// re-probe sees the tuple or the deposit sees the waiter.
type waitTable struct {
	space string                  // registry name, for diagnosis ("" when anonymous)
	seed  uint64                  // the hash store's bin seed
	n     int                     // stripe count
	hb    atomic.Pointer[hbStore] // nil until the first registration
}

// hbStore is HB once something has registered. Every registration writes
// seq, so it has a cache line of its own, apart from what deposits only
// read.
type hbStore struct {
	stripes []waitStripe
	_       [40]byte
	seq     atomic.Uint64 // the next registration's number
	_       [56]byte
}

// waitStripe is one lock's share of HB, padded to a cache line.
type waitStripe struct {
	mu                      sync.Mutex
	classes                 map[waitKey][]*tsWaiter
	wakes, misses, handoffs atomic.Uint64
	count                   atomic.Int32 // waiters filed; changed under mu, read without it
	_                       [16]byte
}

func newWaitTable(space string, stripes int, seed uint64) *waitTable {
	return &waitTable{space: space, n: stripes, seed: seed}
}

// live returns the stripes, nil while nothing has registered.
func (w *waitTable) live() []waitStripe {
	if h := w.hb.Load(); h != nil {
		return h.stripes
	}
	return nil
}

// slot indexes the stripe of class k with the hash store's bin mixer.
func (w *waitTable) slot(k waitKey) int {
	if w.n == 1 {
		return 0
	}
	return binIndex(k, w.seed, w.n)
}

// register files a waiter for tpl, whose class is k.
func (w *waitTable) register(ctx *core.Context, tpl Template, k waitKey) *tsWaiter {
	tw := &tsWaiter{tcb: ctx.TCB(), key: k, since: time.Now()}
	if !k.wild {
		tw.first = tpl[0]
	}
	tw.thread = tw.tcb.Thread()
	h := w.hb.Load()
	if h == nil {
		w.hb.CompareAndSwap(nil, &hbStore{stripes: make([]waitStripe, w.n)})
		h = w.hb.Load()
	}
	st := &h.stripes[w.slot(k)]
	st.mu.Lock()
	tw.seq = h.seq.Add(1) - 1
	if st.classes == nil {
		st.classes = make(map[waitKey][]*tsWaiter)
	}
	st.classes[k] = append(st.classes[k], tw)
	st.count.Add(1)
	st.mu.Unlock()
	return tw
}

// unregister removes tw and reports whether it was still registered; false
// means a waker popped it concurrently, so the caller holds a wake it must
// hand off.
func (w *waitTable) unregister(tw *tsWaiter) bool {
	st := &w.live()[w.slot(tw.key)]
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, x := range st.classes[tw.key] {
		if x == tw {
			st.cutLocked(tw.key, i)
			return true
		}
	}
	return false
}

// cutLocked removes and returns the i-th waiter of class k.
func (st *waitStripe) cutLocked(k waitKey, i int) *tsWaiter {
	list := st.classes[k]
	tw := list[i]
	if len(list) == 1 {
		delete(st.classes, k)
	} else {
		st.classes[k] = append(list[:i], list[i+1:]...)
	}
	st.count.Add(-1)
	return tw
}

// popLocked removes and returns the oldest waiter of class k registered
// before cutoff, or nil.
func (st *waitStripe) popLocked(k waitKey, cutoff uint64) *tsWaiter {
	for i, tw := range st.classes[k] {
		if tw.seq < cutoff {
			return st.cutLocked(k, i)
		}
	}
	return nil
}

// popAnyLocked removes the oldest waiter in any class registered before
// cutoff (used when the deposit is compatible with every class).
func (st *waitStripe) popAnyLocked(cutoff uint64) *tsWaiter {
	var best *tsWaiter
	var bestKey waitKey
	bestAt := 0
	for k, list := range st.classes {
		for i, tw := range list {
			if tw.seq < cutoff && (best == nil || tw.seq < best.seq) {
				best, bestKey, bestAt = tw, k, i
			}
		}
	}
	if best == nil {
		return nil
	}
	return st.cutLocked(bestKey, bestAt)
}

// take pops the oldest waiter registered before cutoff that a class k
// deposit is compatible with — its exact class first, then the arity's
// wildcard class, which may be filed in another stripe — and stamps it with
// the wake it now holds under the lock that popped it. A stripe whose count
// reads 0 is passed without its lock.
func (w *waitTable) take(ss []waitStripe, k waitKey, cutoff uint64) (*tsWaiter, *waitStripe) {
	for c := k; ; c = (waitKey{arity: k.arity, wild: true}) {
		if st := &ss[w.slot(c)]; st.count.Load() > 0 {
			st.mu.Lock()
			tw := st.popLocked(c, cutoff)
			if tw != nil {
				tw.wokeKey, tw.wokeAny, tw.wokeSeq, tw.obligated = k, false, cutoff, true
			}
			st.mu.Unlock()
			if tw != nil {
				return tw, st
			}
		}
		if c.wild {
			return nil, nil
		}
	}
}

// takeAny is take for a deposit every class is compatible with. It pops
// stripe by stripe: a semaphore has one, so its order is exact FIFO.
func (w *waitTable) takeAny(ss []waitStripe, cutoff uint64) (*tsWaiter, *waitStripe) {
	for i := range ss {
		st := &ss[i]
		if st.count.Load() == 0 {
			continue
		}
		st.mu.Lock()
		tw := st.popAnyLocked(cutoff)
		if tw != nil {
			tw.wokeAny, tw.wokeSeq, tw.obligated = true, cutoff, true
		}
		st.mu.Unlock()
		if tw != nil {
			return tw, st
		}
	}
	return nil, nil
}

// rouse delivers a wake to a waiter already popped from HB.
func rouse(tw *tsWaiter, event string) {
	tw.woke.Store(true)
	tw.tcb.ThreadSpanEvent(event)
	core.WakeTCB(tw.tcb)
}

// wakeKey unblocks waiters for a deposit of class k. A tuple with a keyable
// first field wakes exactly one compatible waiter — its exact class first,
// then the arity's wildcard class (the paper's identity-based unblocking,
// made affordable by the signature index). A tuple whose first field is
// unkeyable (a thread, an aggregate) could match any template of its arity
// once demanded, so the whole arity class is woken.
func (w *waitTable) wakeKey(k waitKey) {
	h := w.hb.Load()
	switch {
	case h == nil:
	case k.wild && k.arity > 0:
		w.wakeArity(h.stripes, k.arity)
	default:
		if tw, st := w.take(h.stripes, k, h.seq.Load()); tw != nil {
			st.wakes.Add(1)
			rouse(tw, "tspace-wake")
		}
	}
}

// wakeOne wakes a single waiter of any class — the semaphore regime, where
// deposits carry no content and every waiter is compatible.
func (w *waitTable) wakeOne() {
	if h := w.hb.Load(); h != nil {
		if tw, st := w.takeAny(h.stripes, h.seq.Load()); tw != nil {
			st.wakes.Add(1)
			rouse(tw, "tspace-wake")
		}
	}
}

// wakeArity unblocks every process waiting on templates of the given arity;
// the woken processes re-probe and re-block if the tuple was not for them.
// Herd wakes carry no handoff obligation: every compatible waiter is
// already up.
func (w *waitTable) wakeArity(ss []waitStripe, arity int) {
	var woken []*tsWaiter
	for i := range ss {
		st := &ss[i]
		if st.count.Load() == 0 {
			continue
		}
		st.mu.Lock()
		n := len(woken)
		for k, list := range st.classes {
			if k.arity == arity {
				woken = append(woken, list...)
				delete(st.classes, k)
			}
		}
		st.count.Add(int32(n - len(woken)))
		st.wakes.Add(uint64(len(woken) - n))
		st.mu.Unlock()
	}
	for _, tw := range woken {
		rouse(tw, "tspace-wake")
	}
}

// handoff passes tw's wake obligation to the next waiter that was registered
// before the deposit; the chain dies when none remain, at which point every
// still-blocked compatible waiter registered after the deposit and re-probed
// past it.
func (w *waitTable) handoff(tw *tsWaiter) {
	if !tw.obligated {
		return
	}
	tw.obligated = false
	var next *tsWaiter
	var st *waitStripe
	if tw.wokeAny {
		next, st = w.takeAny(w.live(), tw.wokeSeq)
	} else {
		next, st = w.take(w.live(), tw.wokeKey, tw.wokeSeq)
	}
	if next != nil {
		st.handoffs.Add(1)
		diagHandoff(w.space)
		rouse(next, "tspace-handoff")
	}
}

// miss records that tw, woken, re-probed and found nothing for it.
func (w *waitTable) miss(tw *tsWaiter) {
	w.live()[w.slot(tw.key)].misses.Add(1)
	diagWakeMiss(w.space)
}

// waiters counts the processes currently registered in HB.
func (w *waitTable) waiters() int {
	n := 0
	for i, ss := 0, w.live(); i < len(ss); i++ {
		n += int(ss[i].count.Load())
	}
	return n
}

// stats returns the wake/miss/handoff counters.
func (w *waitTable) stats() (wakes, misses, handoffs uint64) {
	for i, ss := 0, w.live(); i < len(ss); i++ {
		wakes += ss[i].wakes.Load()
		misses += ss[i].misses.Load()
		handoffs += ss[i].handoffs.Load()
	}
	return wakes, misses, handoffs
}

// WaiterCount is implemented by every local space (the front); it exposes
// the size of the blocked table HB for draining servers and leak tests.
type WaiterCount interface {
	Waiters() int
}

// blockingLoop implements the probe/register/block cycle behind the
// front's Get, Rd and TxnWait, for tpl of class k. A CancelToken installed
// with WithCancel withdraws the waiter: the operation unregisters from HB
// and returns the token's reason instead of parking forever.
//
// Wakeups are single-waiter (see waitTable.wake), so a waiter that was
// chosen for a deposit holds an obligation until the deposit is provably
// handled: losing the re-probe, consuming some other tuple, or leaving on
// cancel/error all pass the baton to the next waiter registered before the
// deposit.
func blockingLoop(ctx *core.Context, wt *waitTable, tpl Template, k waitKey,
	probe func() (Tuple, Bindings, error)) (Tuple, Bindings, error) {
	tok := cancelOf(ctx)
	var baton *tsWaiter // wake held from the previous iteration, if any
	release := func() {
		if baton != nil {
			wt.handoff(baton)
			baton = nil
		}
	}
	for {
		if tok != nil && tok.Canceled() {
			release()
			return nil, nil, tok.Reason()
		}
		tup, b, err := probe()
		if err == nil {
			release()
			return tup, b, nil
		}
		if err != ErrNoMatch {
			release()
			return nil, nil, err
		}
		if baton != nil {
			// Woken but the deposit was not for us (or was already taken):
			// the classic spurious wakeup. Pass it on before re-blocking.
			wt.miss(baton)
			release()
		}
		tw := wt.register(ctx, tpl, k)
		// Re-probe after registering: a deposit may have slipped between
		// the failed probe and the registration.
		tup, b, err = probe()
		if err == nil || err != ErrNoMatch {
			if !wt.unregister(tw) {
				// A waker popped us concurrently; its deposit still needs a
				// waiter.
				wt.handoff(tw)
			}
			return tup, b, err
		}
		if tok == nil {
			ctx.BlockUntil(func() bool { return tw.woke.Load() })
			baton = tw
			continue
		}
		if !tok.attach(ctx.TCB()) {
			if !wt.unregister(tw) {
				wt.handoff(tw)
			}
			return nil, nil, tok.Reason()
		}
		ctx.BlockUntil(func() bool { return tw.woke.Load() || tok.Canceled() })
		tok.detach(ctx.TCB())
		if tw.woke.Load() {
			baton = tw
			continue
		}
		if tok.Canceled() {
			if !wt.unregister(tw) {
				wt.handoff(tw)
			}
			return nil, nil, tok.Reason()
		}
	}
}
