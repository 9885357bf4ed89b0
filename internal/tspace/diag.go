package tspace

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Runtime-diagnosis introspection: the representation-side hooks the
// internal/diag subsystem samples and subscribes to. Two surfaces:
//
//   - WaiterInfo snapshots expose who is parked in a space's blocked table
//     (HB), on what key class, since when, and on behalf of which thread —
//     the raw material of the wait-for graph. Snapshots are pull-only and
//     cost nothing until somebody asks.
//   - DiagHook is a push subscription to key-level events (puts, takes,
//     commit conflicts, wake misses, baton handoffs) that the hot-key
//     profiler aggregates. The hook is a single process-wide atomic
//     pointer: when no hook is installed every instrumented path pays one
//     atomic load and a nil check, nothing more.
//
// The registry builds each space with its name, so events and waiter
// snapshots carry the name remote peers and operators know it by;
// anonymous spaces report "".

// DiagOp classifies a key event delivered to the DiagHook.
type DiagOp uint8

// Key-event kinds.
const (
	// DiagPut: a tuple was deposited.
	DiagPut DiagOp = iota
	// DiagTake: a tuple was removed (naked Get/TryGet or a commit-time take).
	DiagTake
	// DiagConflict: a transaction commit failed validation on this key.
	DiagConflict
)

func (op DiagOp) String() string {
	switch op {
	case DiagPut:
		return "put"
	case DiagTake:
		return "take"
	case DiagConflict:
		return "conflict"
	default:
		return fmt.Sprintf("DiagOp(%d)", uint8(op))
	}
}

// DiagHook receives key-level events from instrumented spaces. Methods are
// called from tuple-operation hot paths (and, for conflicts, from inside
// the commit critical section); implementations must be fast, must not
// block, and must not call back into the space.
//
// keyed is false when the tuple's first field is unkeyable (a thread, an
// aggregate, or an empty tuple); sig and first are only meaningful when
// keyed. first is the tuple's first field, passed so the profiler can
// render an exemplar label lazily — implementations must treat it as
// immutable and must not retain tuples through it.
type DiagHook interface {
	KeyEvent(space string, op DiagOp, arity int, sig uint64, keyed bool, first core.Value, threadID uint64)
	WakeMiss(space string)
	Handoff(space string)
}

// diagHookBox wraps the interface so it fits an atomic.Pointer.
type diagHookBox struct{ h DiagHook }

var diagHook atomic.Pointer[diagHookBox]

// SetDiagHook installs (or, with nil, removes) the process-wide diagnosis
// hook. One hook at a time: the diag subsystem owns it.
func SetDiagHook(h DiagHook) {
	if h == nil {
		diagHook.Store(nil)
		return
	}
	diagHook.Store(&diagHookBox{h: h})
}

// diagKeyEvent forwards one key event to the installed hook. All argument
// derivation (classing, thread lookup) happens after the nil check, so the
// disabled cost is one atomic load.
func diagKeyEvent(space string, op DiagOp, tup Tuple, ctx *core.Context) {
	if b := diagHook.Load(); b != nil {
		b.keyEvent(space, op, tup, keyOf(tup), ctx)
	}
}

// keyEvent delivers an event for tup, whose class k the caller holds.
func (b *diagHookBox) keyEvent(space string, op DiagOp, tup Tuple, k waitKey, ctx *core.Context) {
	var tid uint64
	if ctx != nil {
		if t := ctx.Thread(); t != nil {
			tid = t.ID()
		}
	}
	var first core.Value
	if !k.wild {
		first = tup[0]
	}
	b.h.KeyEvent(space, op, len(tup), k.sig, !k.wild, first, tid)
}

// DiagConflictEvent reports a commit conflict on space against tup's key
// class. ApplyCommit calls it for the operation that failed validation;
// the STM layer calls it client-side when a remote commit returns a
// conflict (the server's own ApplyCommit reported the shard-local view).
func DiagConflictEvent(space string, tup Tuple) {
	diagKeyEvent(space, DiagConflict, tup, nil)
}

func diagWakeMiss(space string) {
	if b := diagHook.Load(); b != nil {
		b.h.WakeMiss(space)
	}
}

func diagHandoff(space string) {
	if b := diagHook.Load(); b != nil {
		b.h.Handoff(space)
	}
}

// WaiterInfo describes one parked reader in a space's blocked table.
type WaiterInfo struct {
	// Space is the registry name of the space ("" for anonymous spaces).
	Space string
	// Arity, Wild, Sig identify the wait class (see waitKey): waiters with
	// Wild set match any deposit of their arity.
	Arity int
	Wild  bool
	Sig   uint64
	// Key renders the template's ground first field ("" for wild waiters).
	Key string
	// Since is when the waiter registered (this blocking attempt).
	Since time.Time
	// Seq is the registration sequence number, unique within the space.
	Seq uint64
	// Thread is the STING thread parked here (nil only if the TCB was
	// unbound at registration, which blocking paths never are).
	Thread *core.Thread
}

// snapshot copies the blocked table into WaiterInfos, a stripe at a time;
// keys are rendered once every lock is released.
func (w *waitTable) snapshot() []WaiterInfo {
	var out []WaiterInfo
	var firsts []core.Value
	ss := w.live()
	for i := range ss {
		st := &ss[i]
		st.mu.Lock()
		for k, list := range st.classes {
			for _, tw := range list {
				out = append(out, WaiterInfo{
					Space: w.space, Arity: k.arity, Wild: k.wild, Sig: k.sig,
					Since: tw.since, Seq: tw.seq, Thread: tw.thread,
				})
				firsts = append(firsts, tw.first)
			}
		}
		st.mu.Unlock()
	}
	for i, first := range firsts {
		if first != nil {
			out[i].Key = fmt.Sprintf("%v", first)
		}
	}
	return out
}
