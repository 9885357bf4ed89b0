package policy

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
)

// GlobalFIFO returns a factory whose managers share a single locked FIFO
// queue of runnables. Global queues imply contention among policy managers
// whenever they need a new thread, but — as the paper notes — they suit
// master/slave (worker-farm) programs: the master creates a bounded pool of
// long-lived workers that rarely block and spawn nothing, so a VP has no
// need to pay for maintaining a local queue, and FIFO order gives the farm
// fairness.
func GlobalFIFO() Factory { return shared(nil, 0) }

// RoundRobin returns a preemptive round-robin factory: one shared FIFO
// queue, every dispatched thread bounded by the given quantum. The paper
// recommends this regime for master/slave applications — workers rarely
// block, so without preemption long-running workers would occupy all VPs at
// the expense of other ready threads. Preempted and yielding threads go to
// the back of the queue.
//
// The quantum here acts as the manager's default; threads that set their
// own quantum keep it (pm-quantum is a hint).
func RoundRobin(quantum time.Duration) Factory { return shared(nil, quantum) }

// Priority returns a factory whose managers share a max-priority queue.
// Programmable priorities are one of the two features the paper names as
// essential for speculative computation: promising tasks execute before
// unlikely ones. Ties dispatch in FIFO order so equal-priority threads are
// not starved. A priority change (core.VP.SetPriority) re-ranks the thread
// if it is queued.
func Priority() Factory {
	return shared(func(t *core.Thread) int64 { return -int64(t.Priority()) }, 0)
}

// deadlineKey is the fluid-binding key under which realtime threads carry
// their deadline (a time.Time). The Realtime manager reads the thread's
// creation-time fluid environment; threads without a deadline sort last.
// This mirrors the paper's observation that applications with real-time
// constraints should run under a different scheduling protocol than FIFO
// ones, using only substrate facilities (fluid bindings + a custom PM).
type deadlineKey struct{}

// DeadlineKey is the key applications bind deadlines under.
var DeadlineKey = deadlineKey{}

// WithDeadline is a convenience thread option attaching a deadline by
// extending the thread's fluid environment.
func WithDeadline(env *core.FluidEnv, d time.Time) *core.FluidEnv {
	return env.Bind(DeadlineKey, d)
}

// Realtime returns an earliest-deadline-first factory over one shared
// queue.
func Realtime() Factory {
	return shared(func(t *core.Thread) int64 {
		if v, ok := t.Fluid().Lookup(DeadlineKey); ok {
			if d, ok := v.(time.Time); ok {
				return d.UnixNano()
			}
		}
		return math.MaxInt64
	}, 0)
}

// sharedQueue is the one shared-queue policy manager: a mutex over binary
// heaps ordered by (key, arrival seq). Every VP of the factory gets the same
// sharedQueue, so any VP may dispatch any entry, except that a pinned
// thread waits in its own VP's heap: migration must not move it.
type sharedQueue struct {
	key     func(t *core.Thread) int64 // nil: arrival order only
	quantum time.Duration              // stamped on threads without their own

	mu sync.Mutex
	// h is the shared heap. Without a key entries arrive in seq order, so
	// h[head:] stays sorted (a sorted array is a heap) and is used as a
	// FIFO instead: push appends, pop advances head.
	h       []entry
	head    int
	pinned  map[*core.VP][]entry
	npinned int // entries in pinned; 0 keeps dispatch off the map
	seq     uint64
}

type entry struct {
	r   core.Runnable
	key int64
	seq uint64
}

func shared(key func(t *core.Thread) int64, quantum time.Duration) Factory {
	q := &sharedQueue{key: key, quantum: quantum, pinned: map[*core.VP][]entry{}}
	return func(*core.VP) core.PolicyManager { return q }
}

// threadOf is the thread a runnable stands for.
func threadOf(r core.Runnable) *core.Thread {
	switch x := r.(type) {
	case *core.Thread:
		return x
	case *core.TCB:
		return x.Thread()
	}
	return nil
}

// GetNextThread implements core.PolicyManager: the first of the shared
// heap and vp's pinned heap.
func (q *sharedQueue) GetNextThread(vp *core.VP) core.Runnable {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.npinned > 0 {
		if p := q.pinned[vp]; len(p) > 0 && (q.head == len(q.h) || p[0].before(&q.h[q.head])) {
			r, p := pop(p)
			q.pinned[vp] = p
			q.npinned--
			return r
		}
	}
	if q.key == nil {
		return q.popFront()
	}
	r, h := pop(q.h)
	q.h = h
	return r
}

// EnqueueThread implements core.PolicyManager. Any VP can serve the shared
// heap, so every sibling is kicked (the controller kicks vp itself).
func (q *sharedQueue) EnqueueThread(vp *core.VP, r core.Runnable, st core.EnqueueState) {
	t := threadOf(r)
	if th, ok := r.(*core.Thread); ok && q.quantum != 0 {
		th.SetQuantumHint(q.quantum)
	}
	pinned := t != nil && t.Pinned()
	q.mu.Lock()
	q.seq++
	e := entry{r: r, seq: q.seq}
	// The key is read under mu: a SetPriority that stores after this read
	// re-ranks the entry once it holds mu.
	if q.key != nil && t != nil {
		e.key = q.key(t)
	}
	if pinned {
		q.pinned[vp] = push(q.pinned[vp], e)
		q.npinned++
		q.mu.Unlock()
		return
	}
	if q.key == nil {
		q.pushBack(e)
	} else {
		q.h = push(q.h, e)
	}
	q.mu.Unlock()
	// VP(i) reads the vp-vector in place; VPs() would copy it per enqueue.
	vm := vp.VM()
	for i, n := 0, vm.NVPs(); i < n; i++ {
		if sib := vm.VP(i); sib != vp {
			sib.NotifyWork()
		}
	}
}

// SetPriority implements core.PolicyManager: the new priority is already
// on t, so re-rank t's queued entries by their key.
func (q *sharedQueue) SetPriority(vp *core.VP, t *core.Thread, priority int) {
	if q.key == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	rerank := func(h []entry) {
		for i := range h {
			if threadOf(h[i].r) == t {
				h[i].key = q.key(t)
			}
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			down(h, i)
		}
	}
	rerank(q.h)
	for _, p := range q.pinned {
		rerank(p)
	}
}

// SetQuantum implements core.PolicyManager (the thread carries its
// quantum).
func (q *sharedQueue) SetQuantum(*core.VP, *core.Thread, time.Duration) {}

// AllocateVP implements core.PolicyManager by growing the VM.
func (q *sharedQueue) AllocateVP(vm *core.VM) *core.VP {
	vp, err := vm.AddVP()
	if err != nil {
		return nil
	}
	return vp
}

// VPIdle implements core.PolicyManager: with one shared queue there is
// nowhere to migrate from.
func (q *sharedQueue) VPIdle(*core.VP) {}

// Len reports the queued entries (diagnostics, obs runq depth).
func (q *sharedQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h) - q.head + q.npinned
}

func (e *entry) before(o *entry) bool {
	return e.key < o.key || e.key == o.key && e.seq < o.seq
}

// pushBack appends e to the keyless FIFO h[head:]. When the array is full
// and at least half of it is popped slots, the queue moves to the front
// instead of growing.
func (q *sharedQueue) pushBack(e entry) {
	if len(q.h) == cap(q.h) && 2*q.head >= len(q.h) {
		n := copy(q.h, q.h[q.head:])
		clear(q.h[n:])
		q.h, q.head = q.h[:n], 0
	}
	q.h = append(q.h, e)
}

// popFront takes the oldest keyless entry, zeroing its slot so the array
// does not keep the runnable alive.
func (q *sharedQueue) popFront() core.Runnable {
	if q.head == len(q.h) {
		return nil
	}
	r := q.h[q.head].r
	q.h[q.head] = entry{}
	q.head++
	return r
}

// push adds e to the heap h.
func push(h []entry, e entry) []entry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// pop removes the first entry of the heap h. The vacated slot is zeroed so
// the backing array does not keep the runnable alive.
func pop(h []entry) (core.Runnable, []entry) {
	n := len(h) - 1
	if n < 0 {
		return nil, h
	}
	r := h[0].r
	h[0] = h[n]
	h[n] = entry{}
	h = h[:n]
	down(h, 0)
	return r, h
}

func down(h []entry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
