package core

import (
	"sync/atomic"
	"time"
)

// localQ is an owner-only queue with amortized-O(1) pops at both ends: the
// head index advances instead of shifting the slice, and the buffer compacts
// once the dead prefix reaches half its length.
type localQ struct {
	buf  []Runnable
	head int
}

func (l *localQ) push(r Runnable) { l.buf = append(l.buf, r) }

func (l *localQ) len() int { return len(l.buf) - l.head }

func (l *localQ) popFront() Runnable {
	if l.head >= len(l.buf) {
		return nil
	}
	r := l.buf[l.head]
	l.buf[l.head] = nil
	l.head++
	l.compact()
	return r
}

func (l *localQ) popBack() Runnable {
	n := len(l.buf)
	if l.head >= n {
		return nil
	}
	r := l.buf[n-1]
	l.buf[n-1] = nil
	l.buf = l.buf[:n-1]
	if l.head >= len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
	}
	return r
}

func (l *localQ) compact() {
	if l.head == len(l.buf) {
		l.buf = l.buf[:0]
		l.head = 0
		return
	}
	if l.head >= 32 && 2*l.head >= len(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		for i := n; i < len(l.buf); i++ {
			l.buf[i] = nil
		}
		l.buf = l.buf[:n]
		l.head = 0
	}
}

// workQueue is the substrate's one work-stealing policy manager: the
// default manager, and what policy.LocalLIFO and policy.Unified build. It
// segregates runnables by what thieves may take:
//
//   - unpinned threads not yet evaluating → the Chase–Lev deque (stealable);
//   - pinned threads and evaluating TCBs → an owner-local ready list
//     (never stolen: pinning is a placement promise, and TCBs stay put for
//     the locality regime of §3.3);
//   - yielded/preempted TCBs → an owner-local deferred list dispatched after
//     everything else when deferYield is set, so yield-processor actually
//     lets other ready work run and still resumes the caller at once on an
//     otherwise-idle VP (the Fig. 6 synchronous-context-switch case).
//
// All enqueues go through the lock-free Inbox because wakers and cross-VP
// forks run on foreign goroutines; the owner classifies them at dispatch
// time. GetNextThread and VPIdle run only on the owner VP's controller
// chain.
type workQueue struct {
	inbox    Inbox
	deq      Deque
	ready    localQ // owner-only
	deferred localQ // owner-only
	nLocal   atomic.Int64

	owner      *VP  // kicked when a thief re-pushes scavenged inbox items
	fifo       bool // dispatch oldest-first instead of newest-first
	deferYield bool // yielded/preempted TCBs wait behind all other work
	migrate    bool // VPIdle steals from siblings
}

// WorkStealing returns the work-stealing policy manager for vp. Its three
// settings are the paper's Structure and Granularity choices for per-VP
// queues: fifo dispatches oldest-first instead of newest-first; deferYield
// sends yielded and preempted threads behind all other ready work instead
// of back onto the evaluating list; migrate lets the VP batch-steal from
// its siblings when idle. The substrate's default is
// WorkStealing(vp, false, true, true).
func WorkStealing(vp *VP, fifo, deferYield, migrate bool) PolicyManager {
	return &workQueue{owner: vp, fifo: fifo, deferYield: deferYield, migrate: migrate}
}

func defaultPolicy(vp *VP) PolicyManager { return WorkStealing(vp, false, true, true) }

// EnqueueThread implements PolicyManager. Lock-free; safe from any
// goroutine.
func (q *workQueue) EnqueueThread(vp *VP, r Runnable, st EnqueueState) {
	q.inbox.Push(r, st)
}

// drain classifies everything pending in the inbox. Owner only.
func (q *workQueue) drain() {
	q.inbox.Drain(func(r Runnable, st EnqueueState) {
		switch x := r.(type) {
		case *Thread:
			if x.Pinned() {
				q.ready.push(x)
				q.nLocal.Add(1)
				return
			}
			q.deq.PushBottom(x)
		default:
			if tcb, ok := r.(*TCB); ok && q.deferYield &&
				(st == EnqYield || st == EnqPreempted) {
				q.deferred.push(tcb)
			} else {
				q.ready.push(r)
			}
			q.nLocal.Add(1)
		}
	})
}

// GetNextThread implements PolicyManager: the ready list, then the deque,
// then deferred work. Owner only.
func (q *workQueue) GetNextThread(vp *VP) Runnable {
	q.drain()
	if q.ready.len() > 0 {
		var r Runnable
		if q.fifo {
			r = q.ready.popFront()
		} else {
			r = q.ready.popBack()
		}
		q.nLocal.Add(-1)
		return r
	}
	if q.fifo {
		for {
			t, retry := q.deq.Steal() // owner taking its own top: oldest first
			if t != nil {
				return t
			}
			if !retry {
				break
			}
		}
	} else if t := q.deq.PopBottom(); t != nil {
		return t
	}
	q.deq.Sweep()
	if q.deferred.len() > 0 {
		r := q.deferred.popFront()
		q.nLocal.Add(-1)
		return r
	}
	return nil
}

// SetPriority implements PolicyManager (ignored: the queue has no
// priorities).
func (q *workQueue) SetPriority(vp *VP, t *Thread, priority int) {}

// SetQuantum implements PolicyManager (the thread carries its quantum).
func (q *workQueue) SetQuantum(vp *VP, t *Thread, quantum time.Duration) {}

// AllocateVP implements PolicyManager.
func (q *workQueue) AllocateVP(vm *VM) *VP {
	vp, err := vm.AddVP()
	if err != nil {
		return nil
	}
	return vp
}

// VPIdle implements PolicyManager: when migrate is set, batch-steal half of
// the stealable queue of the most loaded sibling VP that runs a
// work-stealing manager. Each element moves under its own top-CAS, so there
// is no window for the victim to drain between a counting pass and a
// stealing pass, and pinned threads and evaluating TCBs are never eligible.
func (q *workQueue) VPIdle(vp *VP) {
	if !q.migrate {
		return
	}
	var victim *workQueue
	var most int
	for _, sib := range vp.vm.vpVector() {
		if sib == vp {
			continue
		}
		sq, ok := sib.pm.(*workQueue)
		if !ok {
			continue
		}
		if n := sq.stealableLen(); n > most {
			most, victim = n, sq
		}
	}
	if victim == nil || q.stealHalfFrom(victim, vp) == 0 {
		vp.stats.FailedSteals.Add(1)
	}
}

// stealableLen reports how many entries a thief could currently take. The
// inbox counts too: enqueues the busy owner has not drained yet must stay
// visible to thieves, or a VP hosting a long-running forker hides its whole
// fan-out. Safe from any goroutine.
func (q *workQueue) stealableLen() int { return q.deq.Len() + q.inbox.Len() }

// Len reports the total queued entries (diagnostics, obs runq depth). Safe
// from any goroutine.
func (q *workQueue) Len() int {
	n := int64(q.deq.Len()+q.inbox.Len()) + q.nLocal.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// stealHalfFrom batch-steals up to half of victim's stealable entries into
// q's deque and returns how many moved. The deque is tried first; if the
// victim's owner is occupied mid-thunk (a forking master never reaches its
// drain), the thief scavenges unpinned not-yet-evaluating threads straight
// out of the victim's inbox, re-pushing everything else. The caller must own
// q; victim may be under concurrent owner and thief traffic. Steal stats are
// recorded on vp.
func (q *workQueue) stealHalfFrom(victim *workQueue, vp *VP) int {
	n := victim.deq.StealHalfInto(&q.deq, 0)
	if n == 0 {
		if avail := victim.inbox.Len(); avail > 0 {
			want := (avail + 1) / 2
			returned := victim.inbox.Scavenge(func(r Runnable, st EnqueueState) bool {
				if n >= want {
					return false
				}
				if th, ok := r.(*Thread); ok && !th.Pinned() {
					q.deq.PushBottom(th)
					n++
					return true
				}
				return false
			})
			if returned > 0 {
				victim.owner.NotifyWork()
			}
		}
	}
	if n > 0 {
		vp.stats.StealBatches.Add(1)
		vp.stats.Migrations.Add(uint64(n))
	}
	return n
}
