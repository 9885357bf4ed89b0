package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// yieldReason tells a VP why a hosted thread handed control back.
type yieldReason int

const (
	yieldParked yieldReason = iota // thread parked, yielded, or migrated away
	yieldDone                      // thunk finished; recycle the TCB
)

// yieldMsg travels from a hosted thread that has a goroutine of its own to
// the VP that granted it the CPU.
type yieldMsg struct {
	tcb    *TCB
	reason yieldReason
}

// InterruptHandler is invoked on a VP for asynchronous events (timer, I/O
// completion, user signals). Handlers run on the delivering goroutine and
// must be brief; they typically wake threads or set flags.
type InterruptHandler func(vp *VP, irq Interrupt)

// Interrupt identifies an asynchronous event class delivered to a VP.
type Interrupt int

// Interrupt classes.
const (
	IntTimer Interrupt = iota
	IntIO
	IntUser
)

var vpIDs atomic.Uint64

// VP is a virtual processor: an abstraction of a physical computing device,
// closed over a thread controller (the dispatch loop below), a policy
// manager that determines scheduling and migration, a TCB cache, and
// interrupt handlers. VPs are first-class: programs can enumerate them,
// map threads onto specific ones, and interrogate their state. VPs are
// multiplexed on physical processors just as threads are multiplexed on
// VPs.
type VP struct {
	id    uint64
	index int // position in the VM's vp-vector
	vm    *VM
	pm    PolicyManager

	// yield is the channel on which a hosted thread that has parked before
	// returns control; it is the VP's half of the grant-token handshake.
	yield chan yieldMsg

	pp atomic.Pointer[PP] // physical processor currently hosting this VP

	mu       sync.Mutex
	tcbCache []*TCB
	handlers map[Interrupt]InterruptHandler

	defaultQuantum time.Duration
	recycleTCBs    bool

	current atomic.Pointer[TCB] // hosted TCB, diagnostics

	stats VPStats

	stopped atomic.Bool
}

// VPConfig parameterizes VP construction.
type VPConfig struct {
	// DefaultQuantum is the preemption quantum applied to threads that do
	// not set their own; zero disables preemption by default.
	DefaultQuantum time.Duration
	// DisableTCBRecycling turns the cache off (ablation switch).
	DisableTCBRecycling bool
}

func newVP(vm *VM, index int, pm PolicyManager, cfg VPConfig) *VP {
	vp := &VP{
		id:             vpIDs.Add(1),
		index:          index,
		vm:             vm,
		pm:             pm,
		yield:          make(chan yieldMsg),
		handlers:       make(map[Interrupt]InterruptHandler),
		defaultQuantum: cfg.DefaultQuantum,
		recycleTCBs:    !cfg.DisableTCBRecycling,
	}
	return vp
}

// ID returns the VP's unique identifier.
func (vp *VP) ID() uint64 { return vp.id }

// Index returns the VP's position in its VM's vp-vector; topology
// addressing is defined over this index.
func (vp *VP) Index() int { return vp.index }

// VM returns the virtual machine this VP belongs to (the paper's (vp).vm).
func (vp *VP) VM() *VM { return vp.vm }

// PM returns the VP's policy manager.
func (vp *VP) PM() PolicyManager { return vp.pm }

// PP returns the physical processor currently hosting this VP.
func (vp *VP) PP() *PP { return vp.pp.Load() }

// Stats exposes the VP's scheduler counters.
func (vp *VP) Stats() *VPStats { return &vp.stats }

// Current returns the TCB the VP is currently hosting, or nil.
func (vp *VP) Current() *TCB { return vp.current.Load() }

// DefaultQuantum returns the VP's default preemption quantum.
func (vp *VP) DefaultQuantum() time.Duration { return vp.defaultQuantum }

func (vp *VP) String() string {
	return fmt.Sprintf("#[vp %d.%d]", vp.vm.ID(), vp.index)
}

// SetInterruptHandler installs a handler for the given interrupt class.
func (vp *VP) SetInterruptHandler(irq Interrupt, h InterruptHandler) {
	vp.mu.Lock()
	vp.handlers[irq] = h
	vp.mu.Unlock()
}

// Deliver invokes the VP's handler for irq, if any, and reports whether a
// handler ran.
func (vp *VP) Deliver(irq Interrupt) bool {
	vp.mu.Lock()
	h := vp.handlers[irq]
	vp.mu.Unlock()
	if h == nil {
		return false
	}
	h(vp, irq)
	return true
}

// NotifyWork kicks the physical processor hosting this VP so newly enqueued
// work is noticed promptly. Policy managers call this (indirectly, via the
// controller) after every enqueue.
func (vp *VP) NotifyWork() {
	if pp := vp.pp.Load(); pp != nil {
		pp.kickNow()
	}
}

// runSlice is the VP's thread controller loop, executed while pp hosts the
// VP: up to pp's budget of dispatches are performed. It reports whether any
// work was done, and whether this goroutine still carries pp's loop (see
// TCB.evaluate).
func (vp *VP) runSlice(pp *PP) (did, carried bool) {
	for i := 0; i < pp.sliceBudget; i++ {
		if vp.stopped.Load() {
			return did, true
		}
		r := vp.pm.GetNextThread(vp)
		if r == nil {
			vp.stats.Idles.Add(1)
			vp.pm.VPIdle(vp)
			r = vp.pm.GetNextThread(vp)
			if r == nil {
				return did, true
			}
		}
		// Draining the queue counts as progress even when the entry turns
		// out to be dead (stolen or terminated while queued), or an idle
		// nap could starve a long backlog of dead entries.
		did = true
		if !vp.dispatch(pp, r) {
			return did, false
		}
	}
	return did, true
}

// dispatch grants the VP to a runnable: a Thread is moved to Evaluating,
// bound to a (possibly recycled) TCB and evaluated on this goroutine; a TCB
// is resumed where it parked. It reports whether this goroutine still
// carries pp's loop.
func (vp *VP) dispatch(pp *PP, r Runnable) bool {
	switch x := r.(type) {
	case *Thread:
		if !x.casState(Scheduled, Evaluating) {
			return true // stolen or terminated while queued
		}
		tcb := vp.takeTCB()
		x.mu.Lock()
		x.tcb = tcb
		x.mu.Unlock()
		tcb.thread.Store(x)
		tcb.vp.Store(vp)
		tcb.resumeRequested.Store(false)
		if x.req.Load() != 0 {
			tcb.asyncReq.Store(true) // requests recorded before dispatch
		}
		vp.stats.Dispatches.Add(1)
		x.spanEvent("evaluating")
		emit(TraceDispatch, x.id, vp.index)
		vp.grant(tcb, x)
		return tcb.evaluate(pp, x)
	case *TCB:
		t := x.thread.Load()
		if t == nil {
			return true // raced with completion; TCB already recycled
		}
		vp.stats.Dispatches.Add(1)
		emit(TraceDispatch, t.id, vp.index)
		vp.grant(x, t)
		x.vp.Store(vp)
		x.resume <- struct{}{}
		msg := <-vp.yield
		vp.current.Store(nil)
		if msg.reason == yieldDone {
			vp.putTCB(msg.tcb)
		}
		return true
	default:
		panic(fmt.Sprintf("core: policy manager returned %T", r))
	}
}

// grant makes tcb the VP's current thread and stamps its quantum deadline.
// The thread notices expiry at its next TC entry (Poll), which is exactly
// the paper's preemption semantics — a thread enters the controller because
// of preemption, and state changes take place at TC calls. Deadline
// accounting rather than an asynchronous timer keeps preemption reliable
// even on a single-CPU host.
func (vp *VP) grant(tcb *TCB, t *Thread) {
	vp.current.Store(tcb)
	if q := QuantumFor(t, vp.defaultQuantum); q > 0 {
		tcb.quantumEnd = time.Now().Add(q).UnixNano()
	} else {
		tcb.quantumEnd = 0
	}
}

// takeTCB serves a TCB from the recycle cache or allocates a fresh one.
func (vp *VP) takeTCB() *TCB {
	vp.mu.Lock()
	if n := len(vp.tcbCache); n > 0 {
		tcb := vp.tcbCache[n-1]
		vp.tcbCache = vp.tcbCache[:n-1]
		vp.mu.Unlock()
		vp.stats.TCBHits.Add(1)
		return tcb
	}
	vp.mu.Unlock()
	vp.stats.TCBMisses.Add(1)
	return newTCB(vp)
}

// putTCB recycles a finished TCB: it returns to the cache for immediate
// reuse; beyond the limit (or with recycling disabled) it is dropped.
func (vp *VP) putTCB(tcb *TCB) {
	tcb.thread.Store(nil)
	tcb.resumeRequested.Store(false)
	tcb.preemptPending.Store(false)
	tcb.asyncReq.Store(false)
	tcb.quantumEnd = 0
	if vp.recycleTCBs && !vp.stopped.Load() {
		vp.mu.Lock()
		if len(vp.tcbCache) < tcbCacheLimit {
			vp.tcbCache = append(vp.tcbCache, tcb)
		}
		vp.mu.Unlock()
	}
}

// CachedTCBs returns the number of TCBs currently in the recycle cache.
func (vp *VP) CachedTCBs() int {
	vp.mu.Lock()
	defer vp.mu.Unlock()
	return len(vp.tcbCache)
}
