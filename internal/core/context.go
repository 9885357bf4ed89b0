package core

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Context is handed to every thunk and is the handle through which running
// code makes thread-controller (TC) calls: yielding, blocking, waiting,
// demanding values, suspension, preemption control, and fluid-binding
// access. A Context is bound to one TCB and must only be used from the
// goroutine executing that TCB's thread.
type Context struct {
	tcb *TCB
}

// TCB returns the control block of the executing thread.
func (ctx *Context) TCB() *TCB { return ctx.tcb }

// Thread returns the thread the context is currently evaluating: the
// innermost stolen thread when a steal is in progress, otherwise the thread
// bound to the TCB (the paper's current-thread).
func (ctx *Context) Thread() *Thread {
	if n := len(ctx.tcb.stolen); n > 0 {
		return ctx.tcb.stolen[n-1]
	}
	return ctx.tcb.thread.Load()
}

// VP returns the virtual processor the thread is executing on (the paper's
// current-vp).
func (ctx *Context) VP() *VP { return ctx.tcb.vp.Load() }

// VM returns the virtual machine the current VP belongs to.
func (ctx *Context) VM() *VM { return ctx.VP().vm }

// Step charges one evaluation step against the thread's safe-point quantum
// and enters the thread controller (Poll) every budget-th step, reporting
// whether this step was the one that polled. The count lives in the TCB and
// only its thread touches it, so a safe point is a plain increment.
func (ctx *Context) Step(budget uint64) bool {
	tcb := ctx.tcb
	if tcb.steps++; tcb.steps < budget {
		return false
	}
	tcb.steps = 0
	ctx.Poll()
	return true
}

// Poll is the lightweight TC entry: it honours a pending preemption and any
// transition requests other threads have recorded for the current thread.
// Long-running computations are expected to call Poll at safe points — the
// interpreter and all substrate operations do so automatically.
func (ctx *Context) Poll() {
	tcb := ctx.tcb
	tcb.polls++
	ctx.applyRequests()
	if qe := tcb.quantumEnd; qe > 0 && time.Now().UnixNano() >= qe {
		tcb.preemptPending.Store(true)
	}
	if tcb.preemptPending.Load() {
		if tcb.noPreempt > 0 {
			// The paper's deferred-preemption bit: remember that a quantum
			// expired while preemption was disabled.
			tcb.deferred = true
			return
		}
		tcb.preemptPending.Store(false)
		tcb.deferred = false
		tcb.preempts++
		vp := tcb.vp.Load()
		vp.stats.Preemptions.Add(1)
		emit(TracePreempt, ctx.Thread().ID(), vpIndexOf(vp))
		tcb.yieldTo(EnqPreempted)
		ctx.applyRequests()
	}
}

// applyRequests effects state transitions other threads have requested.
// Only the thread itself performs the transition, which is the invariant
// that lets TCBs change state without locks.
func (ctx *Context) applyRequests() {
	tcb := ctx.tcb
	if tcb.noInterrupt > 0 {
		return // without-interrupts defers every asynchronous request
	}
	// Fast path: nothing was requested for any thread bound to this TCB.
	// The flag is cleared before the scan, so a request landing mid-scan
	// re-sets it and is honoured at the next entry.
	if !tcb.asyncReq.Swap(false) {
		return
	}
	// Innermost stolen thread first: a terminate aimed at a stolen thread
	// unwinds just that inline evaluation.
	for i := len(tcb.stolen) - 1; i >= 0; i-- {
		st := tcb.stolen[i]
		if st.req.Load()&reqTerminate != 0 {
			st.mu.Lock()
			vals := st.reqValues
			st.mu.Unlock()
			panic(threadExitPanic{t: st, values: vals})
		}
	}
	t := tcb.thread.Load()
	if t == nil {
		return
	}
	req := t.req.Load()
	if req == 0 {
		return
	}
	if req&reqTerminate != 0 {
		t.mu.Lock()
		vals := t.reqValues
		t.mu.Unlock()
		panic(threadExitPanic{t: t, values: vals})
	}
	if req&reqSuspend != 0 {
		t.req.And(^reqSuspend)
		ctx.SuspendSelf(0)
	}
	if req&reqBlock != 0 {
		t.req.And(^reqBlock)
		ctx.BlockSelf(nil)
	}
}

// Yield relinquishes the current VP, inserting the thread into a suitable
// ready queue of its policy manager (the paper's yield-processor). With the
// default LIFO manager and an otherwise idle VP the caller is resumed
// immediately — the synchronous context switch measured in Fig. 6.
func (ctx *Context) Yield() {
	ctx.applyRequests()
	vp := ctx.tcb.vp.Load()
	vp.stats.Switches.Add(1)
	emit(TraceYield, ctx.Thread().ID(), vpIndexOf(vp))
	ctx.tcb.yieldTo(EnqYield)
	ctx.applyRequests()
}

// blockUntil parks the current thread until cond holds. Spurious wakes are
// absorbed by re-checking cond, so any waker-side race only costs a retry.
func (ctx *Context) blockUntil(cond func() bool, st ExecState, enq EnqueueState) {
	tcb := ctx.tcb
	for !cond() {
		ctx.applyRequests()
		vp := tcb.vp.Load()
		vp.stats.Blocks.Add(1)
		ctx.Thread().spanEvent("block")
		emit(TraceBlock, ctx.Thread().ID(), vpIndexOf(vp))
		tcb.parkWait(st)
	}
	ctx.applyRequests()
}

// BlockUntil parks the current thread until cond holds. It is the exported
// building block synchronization structures (mutexes, tuple spaces,
// streams) are written with: register with the resource, then BlockUntil
// the resource's wake condition. Spurious wakes are absorbed by the
// condition re-check, so waker races only cost a retry.
func (ctx *Context) BlockUntil(cond func() bool) {
	ctx.blockUntil(cond, ExecBlocked, EnqUserBlock)
}

// WakeTCB reschedules a thread parked in BlockUntil/BlockSelf. Wakers must
// first make the waiter's condition true, then call WakeTCB.
func WakeTCB(tcb *TCB) { wakeTCB(tcb, EnqUserBlock) }

// BlockUntilDeadline parks the current thread until cond holds or the
// deadline passes, reporting whether cond held. It is the bounded form of
// BlockUntil that I/O bridges (the remote tuple-space client, device
// waits with timeouts) use to honour per-operation deadlines while still
// parking through the substrate rather than holding the VP.
func (ctx *Context) BlockUntilDeadline(cond func() bool, deadline time.Time) bool {
	if cond() {
		ctx.applyRequests()
		return true
	}
	tcb := ctx.tcb
	var expired atomic.Bool
	timer := time.AfterFunc(time.Until(deadline), func() {
		expired.Store(true)
		wakeTCB(tcb, EnqUserBlock)
	})
	defer timer.Stop()
	ctx.blockUntil(func() bool { return cond() || expired.Load() },
		ExecBlocked, EnqUserBlock)
	return cond()
}

// BlockSelf blocks the current thread on the given blocker description
// until another thread wakes it with ThreadRun. The blocker is recorded for
// debuggers only; the substrate imposes no protocol on it. ThreadRun leaves
// a permit that BlockSelf consumes, so a wake that lands between the
// caller's own check and this call is not lost: the call returns at once.
func (ctx *Context) BlockSelf(blocker any) {
	tcb := ctx.tcb
	_ = blocker
	ctx.blockUntil(func() bool { return tcb.resumeRequested.CompareAndSwap(true, false) },
		ExecBlocked, EnqUserBlock)
}

// SuspendSelf suspends the current thread. With a positive quantum the
// thread resumes when the period elapses; with zero it stays suspended
// until another thread applies ThreadRun to it.
func (ctx *Context) SuspendSelf(quantum time.Duration) {
	tcb := ctx.tcb
	var deadline time.Time
	if quantum > 0 {
		deadline = time.Now().Add(quantum)
		timer := time.AfterFunc(quantum, func() { wakeTCB(tcb, EnqSuspended) })
		defer timer.Stop()
	}
	ctx.blockUntil(func() bool {
		if tcb.resumeRequested.CompareAndSwap(true, false) {
			return true
		}
		return quantum > 0 && !time.Now().Before(deadline)
	}, ExecSuspended, EnqSuspended)
}

// Wait blocks the current thread until t's state becomes determined (the
// paper's thread-wait). When t is delayed or scheduled and permits it, the
// thunk is stolen and evaluated inline on the caller's TCB instead of
// blocking — the §4.1.1 optimization.
func (ctx *Context) Wait(t *Thread) {
	for {
		switch t.State() {
		case Determined:
			ctx.applyRequests()
			return
		case Delayed, Scheduled:
			if t.Stealable() {
				if ctx.TrySteal(t) {
					continue
				}
				continue // lost the race; state has advanced
			}
			if t.State() == Delayed {
				// A delayed, unstealable thread must be demanded by
				// scheduling it, or the wait could never finish.
				ThreadRun(t, ctx.VP())
				continue
			}
			ctx.BlockOnGroup(1, []*Thread{t})
		case Evaluating, Stolen:
			ctx.BlockOnGroup(1, []*Thread{t})
		}
	}
}

// Value demands t's result (the paper's thread-value): it waits for t to be
// determined and returns its values, wrapping any failure as a RemoteError.
func (ctx *Context) Value(t *Thread) ([]Value, error) {
	ctx.Wait(t)
	return t.TryValue()
}

// Value1 is Value for the common single-value case.
func (ctx *Context) Value1(t *Thread) (Value, error) {
	vals, err := ctx.Value(t)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, nil
	}
	return vals[0], nil
}

// TrySteal attempts to absorb t: if t is delayed or scheduled, its state
// moves to Stolen and its thunk runs inline on the caller's TCB, avoiding a
// context switch and a TCB allocation. It reports whether the steal
// happened. The caller's VP does not change; the stolen thread shares the
// caller's stack and heap, which is what improves locality.
func (ctx *Context) TrySteal(t *Thread) bool {
	if !t.Stealable() {
		return false
	}
	if !t.casState(Delayed, Stolen) && !t.casState(Scheduled, Stolen) {
		return false
	}
	vp := ctx.tcb.vp.Load()
	vp.stats.Steals.Add(1)
	if t.vm != nil {
		t.vm.stats.Steals.Add(1)
	}
	t.spanEvent("stolen")
	emit(TraceSteal, t.id, vpIndexOf(vp))
	ctx.runStolen(t)
	return true
}

// runStolen evaluates t's thunk on the current TCB, recording it on the
// stolen stack so current-thread and transition requests resolve to it.
func (ctx *Context) runStolen(t *Thread) {
	tcb := ctx.tcb
	tcb.stolen = append(tcb.stolen, t)
	// Bind the stolen thread to this TCB so transition requests aimed at
	// it flag (and wake) the stealer.
	t.mu.Lock()
	t.tcb = tcb
	t.mu.Unlock()
	if t.req.Load() != 0 {
		tcb.asyncReq.Store(true)
	}
	savedFluid := tcb.fluid
	tcb.fluid = t.fluid
	savedSpan := tcb.spanCtx
	tcb.spanCtx = t.spanCtx
	var values []Value
	var err error
	func() {
		defer func() {
			tcb.fluid = savedFluid
			tcb.spanCtx = savedSpan
			tcb.stolen = tcb.stolen[:len(tcb.stolen)-1]
			r := recover()
			if r == nil {
				t.determine(values, err)
				return
			}
			if ex, ok := r.(threadExitPanic); ok {
				// The stolen thread is determined as terminated whether the
				// exit targeted it or an enclosing thread (collateral kill);
				// an exit aimed elsewhere keeps unwinding.
				t.determine(ex.values, ErrTerminated)
				if ex.t != t {
					panic(r)
				}
				return
			}
			// A user panic in the stolen thunk: the stolen thread fails,
			// and — since the steal ran as an ordinary procedure call on
			// the caller's context — the exception propagates into the
			// caller as well, exactly the §4.1.1 stealing hazard.
			t.determine(nil, &PanicError{Value: r})
			panic(r)
		}()
		values, err = t.thunk(ctx)
	}()
}

// WithoutPreemption runs body with preemption disabled, honouring a quantum
// expiry that arrived in the meantime as soon as the body finishes (the
// paper's without-preemption form).
func (ctx *Context) WithoutPreemption(body func()) {
	tcb := ctx.tcb
	tcb.noPreempt++
	defer func() {
		tcb.noPreempt--
		if tcb.noPreempt == 0 && tcb.deferred {
			tcb.deferred = false
			ctx.Poll()
		}
	}()
	body()
}

// WithoutInterrupts runs body with all asynchronous requests — preemption
// and transition requests alike — deferred until it completes (the paper's
// without-interrupts form).
func (ctx *Context) WithoutInterrupts(body func()) {
	tcb := ctx.tcb
	tcb.noInterrupt++
	tcb.noPreempt++
	defer func() {
		tcb.noInterrupt--
		tcb.noPreempt--
		if tcb.noInterrupt == 0 {
			ctx.Poll()
		}
	}()
	body()
}

// InterruptsDisabled reports whether the thread is inside WithoutInterrupts.
func (ctx *Context) InterruptsDisabled() bool { return ctx.tcb.noInterrupt > 0 }

// SetPriority adjusts the current thread's priority (see VP.SetPriority).
func (ctx *Context) SetPriority(p int) { ctx.VP().SetPriority(ctx.Thread(), p) }

// SetQuantum adjusts the current thread's preemption quantum via the VP's
// policy manager (the paper's pm-quantum hint).
func (ctx *Context) SetQuantum(q time.Duration) {
	t := ctx.Thread()
	t.quantum.Store(int64(q))
	vp := ctx.VP()
	vp.pm.SetQuantum(vp, t, q)
}

// Fluid returns the value bound to key in the thread's dynamic environment.
func (ctx *Context) Fluid(key any) (Value, bool) { return ctx.tcb.fluid.Lookup(key) }

// FluidLet runs body with key bound to value in the dynamic environment,
// restoring the previous environment afterwards.
func (ctx *Context) FluidLet(key any, value Value, body func()) {
	saved := ctx.tcb.fluid
	ctx.tcb.fluid = saved.Bind(key, value)
	defer func() { ctx.tcb.fluid = saved }()
	body()
}

// FluidEnvSnapshot returns the current dynamic environment; threads created
// from this context inherit it.
func (ctx *Context) FluidEnvSnapshot() *FluidEnv { return ctx.tcb.fluid }

// SpanContext returns the thread's current trace context — the one child
// threads, remote operations, and WithSpan spans are parented under. It is
// the zero context when the thread is untraced.
func (ctx *Context) SpanContext() obs.SpanContext { return ctx.tcb.spanCtx }

// SetSpanContext replaces the thread's current trace context. Cluster
// fan-out branches use it to re-parent the wire operations a branch issues
// under that branch's span.
func (ctx *Context) SetSpanContext(sc obs.SpanContext) { ctx.tcb.spanCtx = sc }

// WithSpan runs body inside a span parented under the current trace
// context; threads forked and remote operations issued within body are
// parented under the new span. Like FluidLet, the previous context is
// restored afterwards. body receives the span (nil when tracing is off —
// Span methods are nil-safe) and the span ends when body returns.
func (ctx *Context) WithSpan(name string, body func(s *obs.Span)) {
	s := obs.StartSpan(ctx.tcb.spanCtx, name, obs.SpanInternal)
	if s == nil {
		body(nil)
		return
	}
	saved := ctx.tcb.spanCtx
	ctx.tcb.spanCtx = s.Context()
	defer func() {
		ctx.tcb.spanCtx = saved
		s.End()
	}()
	body(s)
}
