package core

import "time"

// This file holds the thread-controller operations that the paper lists as
// the user interface to threads (§3.1): fork-thread, create-thread,
// thread-run, thread-wait, thread-value, thread-block, thread-suspend,
// thread-terminate, yield-processor, current-thread. The state-transition
// procedures here allocate no thread storage beyond the thread object
// itself; TCBs come from VP caches at dispatch time.

// CreateThread creates a delayed thread closed over thunk (the paper's
// create-thread). A delayed thread never runs unless its value is demanded
// (via Wait/Value, possibly stealing it) or it is explicitly scheduled with
// ThreadRun.
func (ctx *Context) CreateThread(thunk Thunk, opts ...ThreadOption) *Thread {
	ctx.Poll() // thread operations are TC entries
	// The new thread captures the creator's *current* dynamic environment
	// (fluid-let extent included) and trace context (with-span extent
	// included); explicit WithFluid/WithSpanContext options override.
	return newThread(ctx.VM(), ctx.Thread(), thunk, ctx.tcb.fluid, ctx.tcb.spanCtx, opts...)
}

// Fork creates a thread to evaluate thunk and schedules it on vp (the
// paper's fork-thread). A nil vp schedules on the current VP.
func (ctx *Context) Fork(thunk Thunk, vp *VP, opts ...ThreadOption) *Thread {
	t := ctx.CreateThread(thunk, opts...)
	if vp == nil {
		vp = ctx.VP()
	}
	scheduleThread(t, vp, EnqNew)
	return t
}

// ThreadRun makes a thread runnable (the paper's thread-run): a delayed
// thread is inserted into the ready queue of vp's policy manager; a blocked
// or suspended thread is rescheduled. Running an evaluating or determined
// thread is a no-op returning ErrBadTransition.
func ThreadRun(t *Thread, vp *VP) error {
	if vp == nil {
		return ErrBadTransition
	}
	switch t.State() {
	case Delayed:
		if t.casState(Delayed, Scheduled) {
			scheduleThread(t, vp, EnqDelayed)
			return nil
		}
		return ThreadRun(t, vp) // state advanced concurrently; reclassify
	case Scheduled:
		return nil // already queued
	case Evaluating:
		t.mu.Lock()
		tcb := t.tcb
		t.mu.Unlock()
		if tcb == nil {
			return ErrBadTransition
		}
		tcb.resumeRequested.Store(true)
		wakeTCB(tcb, EnqUserBlock)
		return nil
	default:
		return ErrBadTransition
	}
}

// scheduleThread hands a thread in Scheduled state to vp's policy manager.
func scheduleThread(t *Thread, vp *VP, st EnqueueState) {
	if st == EnqNew {
		t.state.Store(int32(Scheduled))
	}
	vp.stats.Scheduled.Add(1)
	t.spanEvent("scheduled")
	emit(TraceSchedule, t.id, vp.index)
	vp.pm.EnqueueThread(vp, t, st)
	vp.NotifyWork()
}

// ThreadBlock requests that t block (the paper's thread-block). When t is
// the current thread it blocks immediately; otherwise the request is
// recorded and t blocks at its next TC entry.
func (ctx *Context) ThreadBlock(t *Thread, blocker any) {
	if t == ctx.Thread() {
		ctx.BlockSelf(blocker)
		return
	}
	t.requestTransition(reqBlock, nil)
}

// ThreadSuspend requests that t suspend (the paper's thread-suspend). With
// a positive quantum the thread resumes after the period elapses; with zero
// it stays suspended until ThreadRun. Self-suspension is immediate.
func (ctx *Context) ThreadSuspend(t *Thread, quantum time.Duration) {
	if t == ctx.Thread() {
		ctx.SuspendSelf(quantum)
		return
	}
	// A remote suspend records the request; the quantum travels with the
	// resume timer armed when the target notices. For simplicity the
	// remote form supports indefinite suspension plus timed resume.
	t.requestTransition(reqSuspend, nil)
	if quantum > 0 {
		time.AfterFunc(quantum, func() { _ = ThreadRun(t, pickVP(t)) })
	}
}

// ThreadTerminate requests that t terminate with the given result values
// (the paper's thread-terminate). A delayed or scheduled thread is
// determined in place without ever running; an evaluating thread unwinds at
// its next TC entry; a determined thread is left alone.
func ThreadTerminate(t *Thread, values ...Value) {
	for {
		switch t.State() {
		case Delayed:
			if t.casState(Delayed, Stolen) {
				t.determine(values, ErrTerminated)
				return
			}
		case Scheduled:
			if t.casState(Scheduled, Stolen) {
				t.determine(values, ErrTerminated)
				return
			}
		case Evaluating, Stolen:
			t.requestTransition(reqTerminate, values)
			return
		case Determined:
			return
		}
	}
}

// TerminateSelf terminates the current thread immediately with the given
// values; it never returns.
func (ctx *Context) TerminateSelf(values ...Value) {
	panic(threadExitPanic{t: ctx.Thread(), values: values})
}

// pickVP chooses a VP to reschedule a thread on: its TCB's last host if it
// has one, otherwise the first VP of its VM.
func pickVP(t *Thread) *VP {
	t.mu.Lock()
	tcb := t.tcb
	t.mu.Unlock()
	if tcb != nil {
		if vp := tcb.vp.Load(); vp != nil {
			return vp
		}
	}
	if t.vm != nil {
		return t.vm.VP(0)
	}
	return nil
}
