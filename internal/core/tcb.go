package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// park states for the grant-token protocol between a thread and the VP
// schedulers.
const (
	pRunning     int32 = iota // the thread holds a VP's grant token
	pWakePending              // a wake arrived while the thread was running
	pParked                   // the thread announced it is giving up its VP
	pCached                   // the TCB is unbound, parked in a VP's cache
)

// TCB is the dynamic context of an evaluating thread: its preemption state,
// wait-count for group blocking, and the virtual processor currently hosting
// it. TCBs are cached on VPs and recycled for immediate reuse when a thread
// terminates, which keeps thread startup cheap. The paper's per-thread
// stack and heap areas, scavenged per thread, are not reproduced: Go's
// collector owns the memory. A TCB owns no goroutine: its thread runs on the
// goroutine carrying its PP's loop and keeps that goroutine only if it
// parks (see switchOut).
type TCB struct {
	thread atomic.Pointer[Thread] // bound thread; nil when cached
	vp     atomic.Pointer[VP]     // VP currently hosting the thread
	homeVP *VP                    // VP whose cache owns this TCB

	ctx Context // handed to the thunk; bound to this TCB for good

	// resume carries the grant token: a VP stores itself in vp and signals
	// here to hand the CPU to a thread that has parked. Capacity 1
	// decouples deposit from consumption; the empty element keeps the
	// channel a single allocation.
	resume chan struct{}

	// carrier is the PP whose loop the thread is running inline on; nil
	// once the thread has parked and kept a goroutine of its own.
	// Owner-only.
	carrier *PP

	park atomic.Int32 // pRunning/pWakePending/pParked/pCached
	exec atomic.Int32 // ExecState, diagnostic

	// wait packs the current wait generation (high 32 bits) with the
	// signed outstanding count (low 32); see blockgroup.go.
	wait atomic.Uint64

	// preemption machinery: pending is set by the VP's quantum timer and
	// honoured at the next Poll; noPreempt implements without-preemption,
	// deferred records a preemption that arrived while disabled (the
	// paper's second TCB bit).
	preemptPending  atomic.Bool
	asyncReq        atomic.Bool // a thread on this TCB has a pending request
	quantumEnd      int64       // grant deadline in UnixNano; 0 = no quantum.
	noPreempt       int32       // owner-only
	deferred        bool        // owner-only
	noInterrupt     int32       // owner-only; without-interrupts depth
	resumeRequested atomic.Bool

	// stolen is the stack of threads whose thunks this TCB is running
	// inline due to stealing; owner-only.
	stolen []*Thread

	fluid   *FluidEnv       // current dynamic environment; owner-only
	spanCtx obs.SpanContext // current trace context; owner-only, like fluid

	polls    uint64 // owner-only TC-entry counter
	preempts uint64 // owner-only preemptions taken
	steps    uint64 // owner-only safe-point steps since the last Step poll
}

// errGoexit marks threads whose goroutine was torn down from under them.
var errGoexit = errors.New("core: thread goroutine exited without determining")

func newTCB(home *VP) *TCB {
	tcb := &TCB{
		homeVP: home,
		resume: make(chan struct{}, 1),
	}
	tcb.ctx.tcb = tcb
	tcb.park.Store(pCached)
	return tcb
}

// Exec returns the TCB's execution status.
func (tcb *TCB) Exec() ExecState { return ExecState(tcb.exec.Load()) }

// VP returns the virtual processor currently hosting the thread.
func (tcb *TCB) VP() *VP { return tcb.vp.Load() }

// Thread returns the thread bound to this TCB (nil when cached).
func (tcb *TCB) Thread() *Thread { return tcb.thread.Load() }

// Polls returns the number of thread-controller entries this TCB has made;
// preemption and transition requests are honoured at these points. Both
// execution engines — the tree-walker and the bytecode VM — drive this
// counter through the same per-thread safe-point quantum (Context.Step), so
// the two produce the same poll density for the same program.
func (tcb *TCB) Polls() uint64 { return tcb.polls }

// Preempts returns the number of preemptions this TCB has taken at its safe
// points. Engine-alignment tests use it to assert quantum expiry actually
// lands under whichever evaluator is running.
func (tcb *TCB) Preempts() uint64 { return tcb.preempts }

// PreemptPending reports whether a quantum expiry is recorded but not yet
// honoured — it clears at the next safe point outside without-preemption.
func (tcb *TCB) PreemptPending() bool { return tcb.preemptPending.Load() }

// evaluate runs t's thunk on tcb right here, on the goroutine carrying pp's
// loop: a thread that never parks costs a call, not a goroutine switch. It
// reports whether this goroutine still carries pp — false when the thread
// parked on the way, kept the goroutine, and has now finished elsewhere, so
// the caller must unwind to its carrier base.
func (tcb *TCB) evaluate(pp *PP, t *Thread) bool {
	tcb.exec.Store(int32(ExecRunning))
	tcb.park.Store(pRunning)
	tcb.fluid = t.fluid
	tcb.spanCtx = t.spanCtx
	tcb.stolen = tcb.stolen[:0]
	tcb.carrier = pp
	values, err := runThunk(t, &tcb.ctx)
	t.determine(values, err)
	return tcb.finish()
}

// finish retires a determined thread: inline, the TCB goes straight back to
// the cache; detached, the VP hosting it is told to recycle it. It reports
// whether this goroutine still carries a PP loop.
func (tcb *TCB) finish() bool {
	tcb.exec.Store(int32(ExecDone))
	tcb.park.Store(pCached)
	host := tcb.vp.Load()
	if tcb.carrier == nil {
		host.yield <- yieldMsg{tcb: tcb, reason: yieldDone}
		return false
	}
	host.current.Store(nil)
	host.putTCB(tcb)
	return true
}

// runThunk applies the thread's thunk, converting a termination request or a
// stray panic into the thread's error result. Panics in user code become
// thread errors — they cross the thread boundary as exceptions, not as
// crashes of the whole machine. A runtime.Goexit (t.Fatalf inside a test
// thread) cannot be stopped, but it must not strand the thread undetermined
// or its VP without a loop: the thread is determined with errGoexit, its
// TCB retired, and a PP loop it was carrying restarts on a spare carrier.
func runThunk(t *Thread, ctx *Context) (values []Value, err error) {
	exiting := true
	defer func() {
		if r := recover(); r != nil {
			if ex, ok := r.(threadExitPanic); ok {
				// A terminate aimed at this thread (or, collaterally, one
				// aimed at a thread it was evaluating for) unwinds here.
				values, err = ex.values, ErrTerminated
				return
			}
			values, err = nil, &PanicError{Value: r}
		} else if exiting {
			t.determine(nil, errGoexit)
			tcb := ctx.tcb
			if pp := tcb.carrier; tcb.finish() {
				pp.machine.carry(pp)
			}
		}
	}()
	values, err = t.thunk(ctx)
	exiting = false
	return values, err
}

// parkWait gives up the VP until a waker reschedules this TCB. It must be
// called inside a condition loop: a wake that arrived just before parking
// makes parkWait return immediately without yielding (the pending-wake fast
// path), so the caller re-checks its condition.
func (tcb *TCB) parkWait(st ExecState) {
	host := tcb.vp.Load()
	if !tcb.park.CompareAndSwap(pRunning, pParked) {
		// A wake raced in; consume it and keep running.
		tcb.park.Store(pRunning)
		return
	}
	tcb.exec.Store(int32(st))
	tcb.switchOut(host)
}

// yieldTo re-enqueues the TCB (self-wake) and hands the VP back; used by
// yield-processor and preemption. Unlike parkWait it never loses the CPU
// grant that its own enqueue produces, so the park state stays pRunning and
// concurrent wakes degrade to harmless pending flags.
func (tcb *TCB) yieldTo(st EnqueueState) {
	host := tcb.vp.Load()
	tcb.exec.Store(int32(ExecReady))
	host.pm.EnqueueThread(host, tcb, st)
	host.NotifyWork()
	tcb.switchOut(host)
}

// switchOut hands host, the VP the thread is leaving, back and waits for a
// VP to grant the CPU again. At its first park a thread is still running
// inline on its PP's carrier: it keeps this goroutine and passes the PP loop
// to a spare carrier. From then on it answers the VP waiting in dispatch.
// The caller reads host before the TCB can reach a run queue: from then on
// another VP may dequeue it and store itself in tcb.vp ahead of the resume.
func (tcb *TCB) switchOut(host *VP) {
	if pp := tcb.carrier; pp != nil {
		tcb.carrier = nil
		host.current.Store(nil)
		pp.machine.carry(pp)
	} else {
		host.yield <- yieldMsg{tcb: tcb, reason: yieldParked}
	}
	<-tcb.resume
	tcb.exec.Store(int32(ExecRunning))
}

// ThreadSpanEvent annotates the span of the thread bound to this TCB —
// the hook synchronization structures (tuple-space wakeups, baton
// handoffs) use to mark their decisions on the woken thread's trace. A
// no-op for untraced or unbound TCBs.
func (tcb *TCB) ThreadSpanEvent(name string) {
	if t := tcb.thread.Load(); t != nil {
		t.spanEvent(name)
	}
}

// wakeTCB reschedules a parked TCB, or leaves a pending-wake mark if its
// thread is still running. Exactly one enqueue is produced per actual park.
func wakeTCB(tcb *TCB, st EnqueueState) {
	for {
		switch tcb.park.Load() {
		case pParked:
			if tcb.park.CompareAndSwap(pParked, pRunning) {
				vp := tcb.vp.Load()
				tcb.exec.Store(int32(ExecReady))
				if t := tcb.thread.Load(); t != nil {
					t.spanEvent("wake")
					emit(TraceWake, t.ID(), vpIndexOf(vp))
				}
				vp.pm.EnqueueThread(vp, tcb, st)
				vp.NotifyWork()
				return
			}
		case pRunning:
			if tcb.park.CompareAndSwap(pRunning, pWakePending) {
				return
			}
		case pWakePending, pCached:
			return
		}
	}
}
