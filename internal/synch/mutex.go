// Package synch provides the user-level synchronization structures built on
// the substrate's thread operations: mutexes with active/passive spin
// counts (§4.2.1 of the paper), condition variables and reusable barriers
// (a counting semaphore is the tuple space of that kind). None of these
// call into the host OS — blocking is always a thread-controller park, and
// waking is always a ready-queue insertion, exactly as the paper requires.
package synch

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Mutex is STING's mutex: acquisition first actively spins (retaining the
// VP) for Active attempts, then yields the VP and retries up to Passive
// times, and finally blocks. Release restores all blocked threads onto
// ready queues — the paper's wake-all semantics — and lets them re-contend.
type Mutex struct {
	// Active is the active-spin count: while positive, a blocked acquirer
	// retains control of its virtual processor.
	Active int
	// Passive is the passive-spin count: how many times the acquirer
	// yields its VP and retries before blocking outright.
	Passive int

	locked atomic.Bool

	mu      sync.Mutex
	waiters []*waiter

	// contention counters (diagnostics and the Fig. 6 microbench).
	ActiveSpins  atomic.Uint64
	PassiveSpins atomic.Uint64
	BlockedAcqs  atomic.Uint64
}

type waiter struct {
	tcb  *core.TCB
	woke atomic.Bool
}

// NewMutex creates a mutex with the given spin counts (the paper's
// make-mutex active passive).
func NewMutex(active, passive int) *Mutex {
	return &Mutex{Active: active, Passive: passive}
}

// TryAcquire attempts a non-blocking acquisition.
func (m *Mutex) TryAcquire() bool {
	return m.locked.CompareAndSwap(false, true)
}

// Acquire locks the mutex, spinning actively, then passively, then
// blocking (mutex-acquire).
func (m *Mutex) Acquire(ctx *core.Context) {
	// Active spin: retain the VP.
	for i := 0; i <= m.Active; i++ {
		if m.TryAcquire() {
			return
		}
		m.ActiveSpins.Add(1)
	}
	// Passive spin: relinquish the VP, re-acquire when next run.
	for i := 0; i < m.Passive; i++ {
		ctx.Yield()
		m.PassiveSpins.Add(1)
		if m.TryAcquire() {
			return
		}
	}
	// Block until a release wakes us, then re-contend.
	for {
		w := &waiter{tcb: ctx.TCB()}
		m.mu.Lock()
		if m.TryAcquire() {
			m.mu.Unlock()
			return
		}
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()
		m.BlockedAcqs.Add(1)
		ctx.BlockUntil(func() bool { return w.woke.Load() || m.TryAcquireProbe() })
		if m.TryAcquire() {
			return
		}
	}
}

// TryAcquireProbe reports whether the mutex currently looks free, without
// acquiring it; used as a park condition so a release racing with the park
// cannot strand the waiter.
func (m *Mutex) TryAcquireProbe() bool { return !m.locked.Load() }

// Release unlocks the mutex and restores every thread blocked on it onto a
// ready queue (mutex-release).
func (m *Mutex) Release() {
	m.locked.Store(false)
	m.mu.Lock()
	ws := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, w := range ws {
		w.woke.Store(true)
		core.WakeTCB(w.tcb)
	}
}

// Locked reports the lock state (diagnostic).
func (m *Mutex) Locked() bool { return m.locked.Load() }

// WithMutex runs body holding the mutex, releasing it even if body panics —
// the safe with-mutex form the paper builds from mutex primitives and
// exception handling.
func WithMutex(ctx *core.Context, m *Mutex, body func()) {
	m.Acquire(ctx)
	defer m.Release()
	body()
}
