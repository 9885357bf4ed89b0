package synch

import (
	"sync"

	"repro/internal/core"
)

// Cond is a condition variable over a Mutex. Wait atomically releases the
// mutex and parks; Signal and Broadcast restore waiters to ready queues.
// Like everything in this package it is built purely from thread-controller
// parks and wakes.
type Cond struct {
	M *Mutex

	mu      sync.Mutex
	waiters []*waiter
}

// NewCond creates a condition variable tied to m.
func NewCond(m *Mutex) *Cond { return &Cond{M: m} }

// Wait releases the mutex, parks until signalled, and re-acquires the
// mutex before returning. As with sync.Cond, callers must re-check their
// predicate in a loop.
func (c *Cond) Wait(ctx *core.Context) {
	w := &waiter{tcb: ctx.TCB()}
	c.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	c.M.Release()
	ctx.BlockUntil(func() bool { return w.woke.Load() })
	c.M.Acquire(ctx)
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	c.mu.Lock()
	var w *waiter
	if len(c.waiters) > 0 {
		w = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	c.mu.Unlock()
	if w != nil {
		w.woke.Store(true)
		core.WakeTCB(w.tcb)
	}
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	c.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, w := range ws {
		w.woke.Store(true)
		core.WakeTCB(w.tcb)
	}
}

// Barrier is a reusable n-party barrier: the explicit synchronization
// point master/slave rounds are organized around (§4.2.2).
type Barrier struct {
	n int

	mu      sync.Mutex
	arrived int
	round   uint64
	waiters []*waiter
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{n: n}
}

// Await blocks until n parties have arrived, then releases them all and
// resets for the next round. It returns true for exactly one caller per
// round (the "serial" party).
func (b *Barrier) Await(ctx *core.Context) bool {
	b.mu.Lock()
	round := b.round
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.round++
		ws := b.waiters
		b.waiters = nil
		b.mu.Unlock()
		for _, w := range ws {
			w.woke.Store(true)
			core.WakeTCB(w.tcb)
		}
		return true
	}
	w := &waiter{tcb: ctx.TCB()}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	ctx.BlockUntil(func() bool {
		if w.woke.Load() {
			return true
		}
		b.mu.Lock()
		done := b.round != round
		b.mu.Unlock()
		return done
	})
	return false
}

// Parties returns the barrier width.
func (b *Barrier) Parties() int { return b.n }
