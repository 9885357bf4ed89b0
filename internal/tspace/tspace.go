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
// their representation", which the one front over seven stores makes
// literal (front.go). Tuple spaces are first-class, denotable objects;
// operations are expressions returning bindings, not statements.
type TupleSpace interface {
	// Put deposits a tuple (the paper's put/out). Depositing unblocks any
	// matching readers.
	Put(ctx *core.Context, tup Tuple) error
	// Get atomically removes a matching tuple, blocking until one exists
	// (the paper's get/remove; Linda's in).
	Get(ctx *core.Context, tpl Template) (Tuple, Bindings, error)
	// Rd returns a matching tuple without removing it, blocking until one
	// exists.
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

// Representations the specializer can choose (§4.2: "tuple-spaces can be
// specialized as synchronized vectors, queues, sets, shared variables,
// semaphores, or bags").
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
	// Bins is the number of presence-table bins for the hash
	// representation; each bin has its own mutex so multiple producers and
	// consumers access the table concurrently (default 64). One bin
	// reproduces the paper's global-mutex baseline for the ablation.
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
	// Stamped under the table lock when the waiter is chosen: the deposit
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
type waitTable struct {
	mu       sync.Mutex
	space    string // registry name, for diagnosis ("" when anonymous)
	classes  map[waitKey][]*tsWaiter
	seq      uint64
	wakes    uint64 // deposits that woke a waiter directly
	misses   uint64 // woken waiters whose re-probe found nothing
	handoffs uint64 // baton passes to the next compatible waiter
}

func newWaitTable(space string) *waitTable {
	return &waitTable{space: space, classes: make(map[waitKey][]*tsWaiter)}
}

// register files a waiter for tpl, whose class is k.
func (w *waitTable) register(ctx *core.Context, tpl Template, k waitKey) *tsWaiter {
	tw := &tsWaiter{tcb: ctx.TCB(), key: k, since: time.Now()}
	if !k.wild {
		tw.first = tpl[0]
	}
	tw.thread = tw.tcb.Thread()
	w.mu.Lock()
	tw.seq = w.seq
	w.seq++
	w.classes[tw.key] = append(w.classes[tw.key], tw)
	w.mu.Unlock()
	return tw
}

// unregister removes tw and reports whether it was still registered; false
// means a waker popped it concurrently, so the caller holds a wake it must
// hand off.
func (w *waitTable) unregister(tw *tsWaiter) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	list := w.classes[tw.key]
	for i, x := range list {
		if x == tw {
			w.classes[tw.key] = append(list[:i], list[i+1:]...)
			if len(w.classes[tw.key]) == 0 {
				delete(w.classes, tw.key)
			}
			return true
		}
	}
	return false
}

// popLocked removes and returns the oldest waiter of class k registered
// before cutoff, or nil.
func (w *waitTable) popLocked(k waitKey, cutoff uint64) *tsWaiter {
	list := w.classes[k]
	for i, tw := range list {
		if tw.seq < cutoff {
			w.classes[k] = append(list[:i], list[i+1:]...)
			if len(w.classes[k]) == 0 {
				delete(w.classes, k)
			}
			return tw
		}
	}
	return nil
}

// popAnyLocked removes the oldest waiter in any class registered before
// cutoff (used when the deposit is compatible with every class).
func (w *waitTable) popAnyLocked(cutoff uint64) *tsWaiter {
	var best *tsWaiter
	var bestKey waitKey
	for k, list := range w.classes {
		for _, tw := range list {
			if tw.seq < cutoff && (best == nil || tw.seq < best.seq) {
				best, bestKey = tw, k
			}
		}
	}
	if best == nil {
		return nil
	}
	list := w.classes[bestKey]
	for i, tw := range list {
		if tw == best {
			w.classes[bestKey] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(w.classes[bestKey]) == 0 {
		delete(w.classes, bestKey)
	}
	return best
}

// wakeKey unblocks waiters for a deposit of class k. A tuple with a keyable
// first field wakes exactly one compatible waiter — its exact class first,
// then the arity's wildcard class (the paper's identity-based unblocking,
// made affordable by the signature index). A tuple whose first field is
// unkeyable (a thread, an aggregate) could match any template of its arity
// once demanded, so the whole arity class is woken.
func (w *waitTable) wakeKey(k waitKey) {
	if k.wild && k.arity > 0 {
		w.wakeArity(k.arity)
		return
	}
	w.wakeClass(k)
}

// wakeClass wakes one waiter compatible with the class k deposit.
func (w *waitTable) wakeClass(k waitKey) {
	w.mu.Lock()
	cutoff := w.seq
	tw := w.popLocked(k, cutoff)
	if tw == nil && !k.wild {
		tw = w.popLocked(waitKey{arity: k.arity, wild: true}, cutoff)
	}
	if tw != nil {
		w.wakes++
		tw.wokeKey, tw.wokeAny, tw.wokeSeq, tw.obligated = k, false, cutoff, true
	}
	w.mu.Unlock()
	if tw != nil {
		tw.woke.Store(true)
		tw.tcb.ThreadSpanEvent("tspace-wake")
		core.WakeTCB(tw.tcb)
	}
}

// wakeOne wakes a single waiter of any class — the semaphore regime, where
// deposits carry no content and every waiter is compatible.
func (w *waitTable) wakeOne() {
	w.mu.Lock()
	cutoff := w.seq
	tw := w.popAnyLocked(cutoff)
	if tw != nil {
		w.wakes++
		tw.wokeAny, tw.wokeSeq, tw.obligated = true, cutoff, true
	}
	w.mu.Unlock()
	if tw != nil {
		tw.woke.Store(true)
		tw.tcb.ThreadSpanEvent("tspace-wake")
		core.WakeTCB(tw.tcb)
	}
}

// wakeArity unblocks every process waiting on templates of the given arity;
// the woken processes re-probe and re-block if the tuple was not for them.
// Herd wakes carry no handoff obligation: every compatible waiter is
// already up.
func (w *waitTable) wakeArity(arity int) {
	var woken []*tsWaiter
	w.mu.Lock()
	for k, list := range w.classes {
		if k.arity != arity {
			continue
		}
		woken = append(woken, list...)
		delete(w.classes, k)
	}
	if len(woken) > 0 {
		w.wakes += uint64(len(woken))
	}
	w.mu.Unlock()
	for _, tw := range woken {
		tw.woke.Store(true)
		tw.tcb.ThreadSpanEvent("tspace-wake")
		core.WakeTCB(tw.tcb)
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
	w.mu.Lock()
	var next *tsWaiter
	if tw.wokeAny {
		next = w.popAnyLocked(tw.wokeSeq)
	} else {
		next = w.popLocked(tw.wokeKey, tw.wokeSeq)
		if next == nil && !tw.wokeKey.wild {
			next = w.popLocked(waitKey{arity: tw.wokeKey.arity, wild: true}, tw.wokeSeq)
		}
	}
	if next != nil {
		w.handoffs++
		next.wokeKey, next.wokeAny, next.wokeSeq, next.obligated =
			tw.wokeKey, tw.wokeAny, tw.wokeSeq, true
	}
	space := w.space
	w.mu.Unlock()
	if next != nil {
		diagHandoff(space)
		next.woke.Store(true)
		next.tcb.ThreadSpanEvent("tspace-handoff")
		core.WakeTCB(next.tcb)
	}
}

// miss records a woken waiter whose re-probe found nothing for it.
func (w *waitTable) miss() {
	w.mu.Lock()
	w.misses++
	space := w.space
	w.mu.Unlock()
	diagWakeMiss(space)
}

// waiters counts the processes currently registered in HB.
func (w *waitTable) waiters() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, list := range w.classes {
		n += len(list)
	}
	return n
}

// stats returns the wake/miss/handoff counters.
func (w *waitTable) stats() (wakes, misses, handoffs uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wakes, w.misses, w.handoffs
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
			wt.miss()
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
