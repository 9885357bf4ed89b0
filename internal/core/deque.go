package core

import "sync/atomic"

// This file is the lock-free substrate under the scheduler's ready queues:
// a Chase–Lev work-stealing deque for runnable threads plus a multi-producer
// intake stack for enqueues arriving from foreign goroutines (wakers,
// cross-VP forks). Together they form the work-stealing policy manager
// (workQueue, workqueue.go).
//
// Ownership discipline: exactly one goroutine chain — the VP's thread
// controller (runSlice and the thread it is evaluating, inline or serialized
// by the grant-token handshake) — may call the owner operations (PushBottom,
// PopBottom, StealTop-as-owner, Inbox.Drain). Any goroutine may call Steal
// and Inbox.Push.

// dequeArray is one power-of-two ring of slots. Slots are atomic because a
// stale thief may read a slot concurrently with the owner overwriting it
// after wraparound; the thief's CAS on top then fails and the read value is
// discarded.
type dequeArray struct {
	mask  int64
	slots []atomic.Pointer[Thread]
}

func newDequeArray(size int64) *dequeArray {
	return &dequeArray{mask: size - 1, slots: make([]atomic.Pointer[Thread], size)}
}

// Deque is a growable Chase–Lev deque of threads: the owner pushes and pops
// its own bottom without locks or CAS (except for the last element); thieves
// steal from the top with a single CAS each. top is monotonically
// increasing, which rules out ABA on the steal path.
type Deque struct {
	top    atomic.Int64 // next index thieves take; only ever increments
	bottom atomic.Int64 // next index the owner pushes
	array  atomic.Pointer[dequeArray]
	swept  int64 // owner-only: slots below this index are cleared
}

const dequeInitialSize = 64

func (d *Deque) arr() *dequeArray {
	a := d.array.Load()
	if a == nil {
		a = newDequeArray(dequeInitialSize)
		d.array.Store(a) // owner-only path; first push races with nothing
	}
	return a
}

// PushBottom appends t at the owner end. Owner only.
func (d *Deque) PushBottom(t *Thread) {
	b := d.bottom.Load()
	tp := d.top.Load()
	a := d.arr()
	if b-tp > a.mask { // ring full: grow, copying only the live window
		na := newDequeArray(2 * (a.mask + 1))
		for i := tp; i < b; i++ {
			na.slots[i&na.mask].Store(a.slots[i&a.mask].Load())
		}
		d.array.Store(na)
		a = na
	}
	a.slots[b&a.mask].Store(t)
	d.bottom.Store(b + 1)
}

// PopBottom removes and returns the newest thread, or nil when empty. Owner
// only. Contention on the final element is arbitrated through top's CAS, so
// an element is delivered exactly once even against concurrent thieves.
func (d *Deque) PopBottom() *Thread {
	b := d.bottom.Load() - 1
	a := d.arr()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b { // empty; undo the reservation
		d.bottom.Store(t)
		return nil
	}
	item := a.slots[b&a.mask].Load()
	if t == b {
		// Last element: win it against thieves or lose it to one.
		if !d.top.CompareAndSwap(t, t+1) {
			item = nil
		}
		d.bottom.Store(t + 1)
		return item
	}
	a.slots[b&a.mask].Store(nil) // owner-exclusive index; release for GC
	return item
}

// Steal takes the oldest thread from the top. Safe from any goroutine.
// retry reports that the failure was a lost race (the caller may try again)
// rather than an empty deque.
func (d *Deque) Steal() (item *Thread, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	a := d.array.Load()
	if a == nil {
		return nil, false
	}
	// Read before the CAS: after top advances the owner may reuse the slot.
	item = a.slots[t&a.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return item, false
}

// Sweep clears the slots of entries taken from the top, so the ring does not
// keep their threads alive: PopBottom clears its own slot, but a steal
// cannot, as the owner may already be reusing it. It does nothing unless
// the deque is empty, when top cannot move and no slot is live. Owner only.
func (d *Deque) Sweep() {
	a := d.array.Load()
	t := d.top.Load()
	if a == nil || t < d.bottom.Load() {
		return
	}
	if t-d.swept > a.mask {
		d.swept = t - a.mask - 1
	}
	for ; d.swept < t; d.swept++ {
		a.slots[d.swept&a.mask].Store(nil)
	}
}

// Len reports how many entries are in the deque. Safe from any goroutine;
// the value is a snapshot and may be momentarily negative under a racing
// PopBottom, which callers treat as zero.
func (d *Deque) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// StealHalfInto moves up to half of d's current entries (at least one, at
// most max when max > 0) into dst, which must be owned by the caller. The
// batch is assembled with one top-CAS per element inside this single call —
// there is no counting pass for the victim to drain under, and a
// multi-element CAS would risk duplicating an element the victim's owner is
// concurrently popping. Returns the number moved.
func (d *Deque) StealHalfInto(dst *Deque, max int) int {
	avail := d.bottom.Load() - d.top.Load()
	if avail <= 0 {
		return 0
	}
	want := int((avail + 1) / 2)
	if max > 0 && want > max {
		want = max
	}
	n := 0
	for n < want {
		item, retry := d.Steal()
		if item == nil {
			if retry {
				continue // lost one CAS; the victim still has entries
			}
			break
		}
		dst.PushBottom(item)
		n++
	}
	return n
}

// ---------------------------------------------------------------------------

// inboxNode is one pending enqueue.
type inboxNode struct {
	next *inboxNode
	r    Runnable
	st   EnqueueState
}

// Inbox is the lock-free multi-producer intake for a VP's ready structures:
// EnqueueThread may be called from any goroutine (tuple-space wakers,
// cross-VP forks), so producers push here with a CAS and the owner drains in
// arrival order at dispatch time. A Treiber stack reversed on drain gives
// FIFO arrival order without locks.
type Inbox struct {
	head atomic.Pointer[inboxNode]
	n    atomic.Int64
}

// Push appends one enqueue. Safe from any goroutine. The count goes up
// before the node is visible, so a drain racing the push cannot take the
// node uncounted and leave Len short once the push has returned.
func (in *Inbox) Push(r Runnable, st EnqueueState) {
	node := &inboxNode{r: r, st: st}
	in.n.Add(1)
	for {
		h := in.head.Load()
		node.next = h
		if in.head.CompareAndSwap(h, node) {
			return
		}
	}
}

// Drain removes everything pushed so far and calls f on each item in
// arrival order. Owner only (single consumer).
func (in *Inbox) Drain(f func(Runnable, EnqueueState)) {
	h := in.head.Swap(nil)
	if h == nil {
		return
	}
	count := int64(0)
	var prev *inboxNode
	for h != nil {
		next := h.next
		h.next = prev
		prev, h = h, next
		count++
	}
	in.n.Add(-count)
	for node := prev; node != nil; node = node.next {
		f(node.r, node.st)
	}
}

// Scavenge atomically removes everything pending, offers each item to keep
// in arrival order, and re-pushes the declined items in their original
// relative order. Safe from any goroutine — this is how thieves reach work
// whose owner VP is occupied mid-thunk and has not drained yet (the old
// queue exposed fresh forks to thieves immediately; the inbox must not hide
// them). Items re-pushed during a concurrent Push interleave behind it,
// which only perturbs cross-VP arrival order — single-VP dispatch order is
// unaffected because a lone VP has no thieves.
func (in *Inbox) Scavenge(keep func(Runnable, EnqueueState) bool) (returned int) {
	h := in.head.Swap(nil)
	if h == nil {
		return 0
	}
	count := int64(0)
	var prev *inboxNode
	for h != nil {
		next := h.next
		h.next = prev
		prev, h = h, next
		count++
	}
	in.n.Add(-count)
	for node := prev; node != nil; node = node.next {
		if !keep(node.r, node.st) {
			in.Push(node.r, node.st)
			returned++
		}
	}
	return returned
}

// Len reports how many enqueues are pending. Safe from any goroutine.
func (in *Inbox) Len() int {
	n := in.n.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether nothing is pending.
func (in *Inbox) Empty() bool { return in.head.Load() == nil }
