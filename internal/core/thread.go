package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Thread is STING's basic concurrency object: a first-class, non-strict
// data structure closed over a thunk. Threads may be passed to procedures,
// returned as results, stored in data structures, and outlive their
// creators. A thread imposes no synchronization protocol of its own; the
// code it encapsulates is executed for effect, and its value (possibly
// multiple values) is stored in the thread when it becomes determined.
type Thread struct {
	id   uint64
	name string
	vm   *VM

	thunk Thunk

	state atomic.Int32 // ThreadState

	mu      sync.Mutex // guards values, err, waiters, joiners, reqValues, tcb
	values  []Value
	err     error
	waiters *TB               // chain of thread barriers; nil once determined
	joiners []*externalJoiner // non-STING goroutines waiting for completion

	// Requested state transitions made by other threads. The bits are
	// applied by this thread at its next TC entry; only a thread can
	// actually effect a change to its own state.
	req       atomic.Uint32
	reqValues []Value // termination values, guarded by mu

	// Genealogy: parent, children and group, kept for debugging,
	// profiling and en-masse group operations. A thread's children are
	// defined to be part of the thread's own child group (so kill-group on
	// (thread-group T) terminates T's subtree, as in §3.1).
	parent     *Thread
	group      *Group
	childMu    sync.Mutex
	children   []*Thread
	childGroup *Group

	priority  atomic.Int32
	quantum   atomic.Int64 // nanoseconds; 0 means the VP default
	stealable atomic.Bool
	pinned    atomic.Bool // explicit placement: migration must not move it

	fluid *FluidEnv // dynamic environment captured at creation

	// Causal tracing: spanCtx is the trace context the thread was created
	// under (inherited alongside the fluid environment); span is the
	// thread's own genealogy-linked span, opened at creation when the
	// inherited context names a live trace and ended at determine. Both
	// are nil/zero for untraced threads.
	spanCtx obs.SpanContext
	span    *obs.Span

	tcb *TCB // non-nil while evaluating; guarded by mu
}

// ThreadOption customizes thread creation.
type ThreadOption func(*Thread)

// WithName attaches a debugging name to the thread.
func WithName(name string) ThreadOption { return func(t *Thread) { t.name = name } }

// WithPriority sets the thread's initial scheduling priority (a hint to the
// policy manager; larger is more urgent).
func WithPriority(p int) ThreadOption {
	return func(t *Thread) { t.priority.Store(int32(p)) }
}

// WithQuantum sets the thread's initial preemption quantum. Zero uses the
// VP default; negative disables preemption for this thread.
func WithQuantum(q time.Duration) ThreadOption {
	return func(t *Thread) { t.quantum.Store(int64(q)) }
}

// WithStealable controls whether a demanding thread may absorb this thread's
// thunk and run it inline (§4.1.1). Threads are stealable by default;
// applications parameterize this when inline evaluation could change
// observable behaviour (e.g. under speculation).
func WithStealable(ok bool) ThreadOption {
	return func(t *Thread) { t.stealable.Store(ok) }
}

// WithPinned marks the thread as explicitly placed: policy managers must
// not migrate it off the VP it was scheduled on (§3.2's explicit
// processor/thread mapping).
func WithPinned() ThreadOption {
	return func(t *Thread) { t.pinned.Store(true) }
}

// WithFluid sets the dynamic (fluid-binding) environment the thread starts
// with; by default a thread inherits its creator's environment.
func WithFluid(env *FluidEnv) ThreadOption { return func(t *Thread) { t.fluid = env } }

// WithGroup places the thread in an explicit thread group rather than its
// parent's group.
func WithGroup(g *Group) ThreadOption { return func(t *Thread) { t.group = g } }

// WithSpanContext sets the trace context the thread starts under: when it
// names a live trace (and a span sink is installed) the thread opens its
// own child span at creation, so forked work appears genealogy-linked in
// the trace. Context-created threads inherit their creator's current
// context automatically; this option is for root threads (a server
// dispatching a traced request) and explicit re-parenting.
func WithSpanContext(sc obs.SpanContext) ThreadOption {
	return func(t *Thread) { t.spanCtx = sc }
}

// newThread builds the thread object. parent may be nil (root threads);
// fluid and sc are the inherited dynamic environment and trace context,
// which explicit options override.
func newThread(vm *VM, parent *Thread, thunk Thunk, fluid *FluidEnv, sc obs.SpanContext, opts ...ThreadOption) *Thread {
	t := &Thread{
		id:      threadIDs.Add(1),
		vm:      vm,
		thunk:   thunk,
		parent:  parent,
		fluid:   fluid,
		spanCtx: sc,
	}
	t.stealable.Store(true)
	for _, o := range opts {
		o(t)
	}
	if t.group == nil {
		switch {
		case parent != nil:
			t.group = parent.ChildGroup()
		case vm != nil:
			t.group = vm.rootGroup
		}
	}
	if t.group != nil {
		t.group.add(t)
	}
	if parent != nil {
		parent.childMu.Lock()
		parent.children = append(parent.children, t)
		parent.childMu.Unlock()
	}
	if vm != nil {
		vm.stats.ThreadsCreated.Add(1)
	}
	if t.spanCtx.Valid() {
		name := t.name
		if name == "" {
			name = "thread"
		}
		if s := obs.StartSpan(t.spanCtx, name, obs.SpanInternal); s != nil {
			s.SetAttr("thread", strconv.FormatUint(t.id, 10))
			t.span = s
			// Children forked by this thread nest under its span.
			t.spanCtx = s.Context()
		}
	}
	emit(TraceCreate, t.id, -1)
	return t
}

// ID returns the thread's unique identifier.
func (t *Thread) ID() uint64 { return t.id }

// Name returns the thread's debugging name (may be empty).
func (t *Thread) Name() string { return t.name }

// VM returns the virtual machine the thread belongs to.
func (t *Thread) VM() *VM { return t.vm }

// State returns the thread's current static state.
func (t *Thread) State() ThreadState { return ThreadState(t.state.Load()) }

// Parent returns the thread's creator, or nil for root threads.
func (t *Thread) Parent() *Thread { return t.parent }

// Group returns the thread group the thread belongs to.
func (t *Thread) Group() *Group { return t.group }

// ChildGroup returns (creating lazily) the group this thread's children
// belong to — the paper's (thread.group T), whose kill-group terminates all
// of T's children and, through subgroup recursion, its whole subtree.
func (t *Thread) ChildGroup() *Group {
	t.childMu.Lock()
	defer t.childMu.Unlock()
	if t.childGroup == nil {
		t.childGroup = NewGroup(fmt.Sprintf("thread-%d-children", t.id), t.group)
	}
	return t.childGroup
}

// Children returns a snapshot of the threads this thread has created.
func (t *Thread) Children() []*Thread {
	t.childMu.Lock()
	defer t.childMu.Unlock()
	out := make([]*Thread, len(t.children))
	copy(out, t.children)
	return out
}

// Priority returns the thread's current scheduling priority hint.
func (t *Thread) Priority() int { return int(t.priority.Load()) }

// Quantum returns the thread's preemption quantum (0 = VP default,
// negative = preemption disabled).
func (t *Thread) Quantum() time.Duration { return time.Duration(t.quantum.Load()) }

// Fluid returns the dynamic environment the thread was created with.
func (t *Thread) Fluid() *FluidEnv { return t.fluid }

// SpanContext returns the trace context the thread's children inherit:
// its own span when the thread is traced, the zero context otherwise.
func (t *Thread) SpanContext() obs.SpanContext { return t.spanCtx }

// Span returns the thread's genealogy-linked span (nil when untraced).
func (t *Thread) Span() *obs.Span { return t.span }

// spanEvent annotates the thread's span; a no-op for untraced threads
// (one nil check), so scheduler transition sites call it unconditionally.
func (t *Thread) spanEvent(name string) { t.span.Event(name) }

// SetQuantumHint records a preemption quantum for the thread; policy
// managers use it to stamp their default quantum on threads that have not
// chosen their own (pm-quantum is a hint, so the thread's value wins).
func (t *Thread) SetQuantumHint(q time.Duration) {
	t.quantum.CompareAndSwap(0, int64(q))
}

// Stealable reports whether the thread's thunk may be absorbed by a
// demanding thread.
func (t *Thread) Stealable() bool { return t.stealable.Load() }

// Pinned reports whether the thread was explicitly placed.
func (t *Thread) Pinned() bool { return t.pinned.Load() }

// SetStealable updates the thread's steal permission.
func (t *Thread) SetStealable(ok bool) { t.stealable.Store(ok) }

// Determined reports whether the thread has a value.
func (t *Thread) Determined() bool { return t.State() == Determined }

// Terminated reports whether the thread was determined by termination.
func (t *Thread) Terminated() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.State() == Determined && t.err != nil && isTerminated(t.err)
}

func isTerminated(err error) bool {
	for e := err; e != nil; {
		if e == ErrTerminated {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TryValue returns the thread's values if it is determined, without
// blocking. The error is ErrNotDetermined when the thread is still pending,
// or the thread's own error when it failed or was terminated.
func (t *Thread) TryValue() ([]Value, error) {
	if t.State() != Determined {
		return nil, ErrNotDetermined
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.values, &RemoteError{ThreadID: t.id, ThreadName: t.name, Err: t.err}
	}
	return t.values, nil
}

// TCB returns the thread's control block while it is evaluating, or nil.
func (t *Thread) TCB() *TCB {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tcb
}

// Exec returns the execution status of an evaluating thread (ExecDone when
// the thread has no TCB).
func (t *Thread) Exec() ExecState {
	if tcb := t.TCB(); tcb != nil {
		return tcb.Exec()
	}
	return ExecDone
}

func (t *Thread) String() string {
	name := t.name
	if name == "" {
		name = fmt.Sprintf("thread-%d", t.id)
	}
	return fmt.Sprintf("#[%s %s]", name, t.State())
}

// casState attempts the given state transition atomically.
func (t *Thread) casState(from, to ThreadState) bool {
	return t.state.CompareAndSwap(int32(from), int32(to))
}

// determine records the thread's result, moves it to Determined, and wakes
// every waiter chained from its thread-barrier list.
func (t *Thread) determine(values []Value, err error) {
	t.mu.Lock()
	if t.State() == Determined {
		t.mu.Unlock()
		return
	}
	t.values = values
	t.err = err
	t.state.Store(int32(Determined))
	w := t.waiters
	t.waiters = nil
	joiners := t.joiners
	t.joiners = nil
	t.tcb = nil
	t.mu.Unlock()

	if t.group != nil {
		t.group.noteDetermined(t)
	}
	if t.vm != nil {
		t.vm.stats.ThreadsDetermined.Add(1)
	}
	if t.span != nil {
		if err != nil {
			t.span.SetAttr("error", err.Error())
		}
		t.span.End()
	}
	emit(TraceDetermine, t.id, -1)
	wakeupWaiters(w)
	for _, j := range joiners {
		j.fire()
	}
}

// addWaiter registers a thread barrier on t. It returns false — without
// registering — when t is already determined, in which case the caller
// accounts for the completion directly.
func (t *Thread) addWaiter(tb *TB) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.State() == Determined {
		return false
	}
	tb.target = t
	tb.next = t.waiters
	t.waiters = tb
	return true
}

// requestTransition records a state-change request for the target thread;
// the target applies it at its next TC entry. A best-effort wake makes
// blocked or suspended targets notice promptly.
func (t *Thread) requestTransition(bit uint32, values []Value) {
	if bit == reqTerminate {
		t.mu.Lock()
		t.reqValues = values
		t.mu.Unlock()
		emit(TraceTerminateReq, t.id, -1)
	}
	t.req.Or(bit)
	t.mu.Lock()
	tcb := t.tcb
	t.mu.Unlock()
	if tcb != nil {
		tcb.asyncReq.Store(true)
		wakeTCB(tcb, EnqUserBlock)
	}
}
