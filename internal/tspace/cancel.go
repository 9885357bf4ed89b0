package tspace

import (
	"errors"
	"sync"

	"repro/internal/core"
)

// ErrCanceled is the default reason a canceled blocking operation returns.
// Callers that need to distinguish causes (deadline, disconnect, shutdown)
// pass their own reason to Cancel.
var ErrCanceled = errors.New("tspace: blocking operation canceled")

// CancelToken lets an outside agent — a network server whose client hung
// up, a deadline timer, a draining daemon — withdraw a thread parked in a
// blocking Get/Rd. The token travels in the thread's fluid environment
// (WithCancel), so the TupleSpace interface is untouched and the one
// blocking loop honours it for every representation. Cancellation removes the
// waiter from the space's blocked table: no registration outlives the
// operation.
type CancelToken struct {
	mu       sync.Mutex
	canceled bool
	reason   error
	tcbs     map[*core.TCB]struct{}
	watchers []func(reason error)
}

// NewCancelToken creates an unfired token.
func NewCancelToken() *CancelToken {
	return &CancelToken{tcbs: make(map[*core.TCB]struct{})}
}

// Cancel fires the token: every blocking tuple operation governed by it —
// parked now or entered later — returns reason (ErrCanceled when nil).
// Cancel is idempotent; the first reason wins.
func (c *CancelToken) Cancel(reason error) {
	if reason == nil {
		reason = ErrCanceled
	}
	c.mu.Lock()
	if c.canceled {
		c.mu.Unlock()
		return
	}
	c.canceled = true
	c.reason = reason
	waiters := make([]*core.TCB, 0, len(c.tcbs))
	for tcb := range c.tcbs {
		waiters = append(waiters, tcb)
	}
	watchers := c.watchers
	c.watchers = nil
	c.mu.Unlock()
	for _, tcb := range waiters {
		core.WakeTCB(tcb)
	}
	for _, fn := range watchers {
		fn(reason)
	}
}

// Watch registers fn to run once when the token fires — immediately when
// it already has. Transports use it to translate cancellation into a wire
// message (the fabric's CANCEL frame); fn must not block.
func (c *CancelToken) Watch(fn func(reason error)) {
	c.mu.Lock()
	if c.canceled {
		reason := c.reason
		c.mu.Unlock()
		fn(reason)
		return
	}
	c.watchers = append(c.watchers, fn)
	c.mu.Unlock()
}

// Canceled reports whether the token has fired.
func (c *CancelToken) Canceled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.canceled
}

// Reason returns the cancellation reason (nil while unfired).
func (c *CancelToken) Reason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reason
}

// attach registers a parked TCB for wakeup; it reports false — without
// registering — when the token already fired.
func (c *CancelToken) attach(tcb *core.TCB) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canceled {
		return false
	}
	c.tcbs[tcb] = struct{}{}
	return true
}

func (c *CancelToken) detach(tcb *core.TCB) {
	c.mu.Lock()
	delete(c.tcbs, tcb)
	c.mu.Unlock()
}

// cancelKey is the fluid-environment key blocking loops consult.
type cancelKey struct{}

// WithCancel runs body with tok governing every blocking tuple-space
// operation the current thread performs inside it.
func WithCancel(ctx *core.Context, tok *CancelToken, body func()) {
	ctx.FluidLet(cancelKey{}, tok, body)
}

// cancelOf returns the token governing ctx's blocking operations, if any.
func cancelOf(ctx *core.Context) *CancelToken {
	v, ok := ctx.Fluid(cancelKey{})
	if !ok {
		return nil
	}
	tok, _ := v.(*CancelToken)
	return tok
}
