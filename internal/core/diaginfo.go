package core

// Thread-state snapshot API for the runtime diagnoser (internal/diag).
// The sampler cannot hold scheduler locks while it reasons about stalls,
// so everything here copies the handful of fields it needs into a plain
// struct under the thread's own mutex discipline and returns immediately.

// ThreadInfo is a point-in-time copy of one thread's externally visible
// scheduling state. All fields are values; holding a ThreadInfo pins
// nothing and races with nothing.
type ThreadInfo struct {
	ID       uint64
	Name     string
	State    ThreadState
	Exec     ExecState // ExecDone when the thread has no TCB
	VP       int       // index of the VP hosting the TCB, -1 when unhosted
	Priority int
	Pinned   bool
	Trace    string // trace id of the thread's span, "" when untraced
	Span     string // span id, "" when untraced
}

// Blocked reports whether the snapshot shows a thread parked on
// synchronization — evaluating but not runnable. Delayed/Scheduled
// threads are waiting for CPU, not for an event, so they do not count.
func (ti ThreadInfo) Blocked() bool {
	return ti.State == Evaluating && (ti.Exec == ExecBlocked || ti.Exec == ExecSuspended)
}

// SnapshotThread copies t's diagnosable state. Safe to call from any
// goroutine, including non-STING samplers; t may be in any state.
func SnapshotThread(t *Thread) ThreadInfo {
	ti := ThreadInfo{
		ID:       t.ID(),
		Name:     t.Name(),
		State:    t.State(),
		Exec:     ExecDone,
		VP:       -1,
		Priority: t.Priority(),
		Pinned:   t.Pinned(),
	}
	if tcb := t.TCB(); tcb != nil {
		ti.Exec = tcb.Exec()
		if vp := tcb.VP(); vp != nil {
			ti.VP = vp.Index()
		}
	}
	if sc := t.SpanContext(); sc.Valid() {
		ti.Trace = sc.Trace.String()
		ti.Span = sc.Span.String()
	}
	return ti
}

// LiveThreadInfos snapshots every thread reachable from the VM's root
// group, subgroups included: the live threads, since a thread leaves its
// group when it is determined.
func (vm *VM) LiveThreadInfos() []ThreadInfo {
	threads := vm.rootGroup.AllThreads()
	out := make([]ThreadInfo, len(threads))
	for i, t := range threads {
		out[i] = SnapshotThread(t)
	}
	return out
}
