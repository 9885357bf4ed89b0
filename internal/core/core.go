// Package core implements the STING coordination substrate: first-class
// lightweight threads, thread control blocks (TCBs), virtual processors
// (VPs) closed over customizable policy managers, virtual machines (VMs)
// that group VPs, and the physical machine on which VPs are multiplexed.
//
// The package is a reproduction, in Go, of the substrate described in
// Jagannathan & Philbin, "A Customizable Substrate for Concurrent
// Languages" (PLDI 1992). Threads are plain data structures with no
// imposed synchronization protocol; all concurrency management — scheduling,
// migration, preemption, blocking, storage — happens in library code above
// a small thread controller, never by calling into an operating system.
//
// # Execution model
//
// Go's runtime owns the real processors, so the physical machine is
// simulated: each physical processor is a scheduler loop multiplexing VPs;
// each VP multiplexes threads through its policy manager. A dispatched
// thread runs as a call on the goroutine carrying its PP's loop, and gets a
// goroutine of its own only at its first park; from then on control
// transfer is a synchronous channel handshake (a grant token from a VP). At
// most one thread per VP is ever runnable, exactly as in the paper.
// Preemption is flag-based and honoured at thread-controller entry points
// ("a thread can enter the controller because of preemption"; requested
// state changes "take place only when the target thread next makes a TC
// call").
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Value is the datum threads compute and exchange. As in Scheme, an
// expression — and therefore a thread — can yield multiple values.
type Value = any

// Thunk is the nullary procedure a thread is closed over. It receives the
// executing Context so it can make thread-controller calls.
type Thunk func(ctx *Context) ([]Value, error)

// Errors reported by the substrate.
var (
	// ErrTerminated is the error carried by a thread that was terminated
	// with thread-terminate rather than running to completion.
	ErrTerminated = errors.New("core: thread terminated")
	// ErrNotDetermined is returned when a value is demanded from a thread
	// that has not yet been determined (only possible via TryValue).
	ErrNotDetermined = errors.New("core: thread not determined")
	// ErrMachineStopped is returned for operations on a shut-down machine.
	ErrMachineStopped = errors.New("core: machine stopped")
	// ErrBadTransition is returned when a requested thread state change
	// violates the transition semantics (e.g. scheduling an evaluating
	// thread, blocking a determined one).
	ErrBadTransition = errors.New("core: invalid thread state transition")
	// ErrNoAuthority is returned when the requesting thread lacks the
	// authority to change the target thread's state.
	ErrNoAuthority = errors.New("core: no authority over target thread")
)

var threadIDs atomic.Uint64

// threadExitPanic unwinds a thread whose termination was requested.
type threadExitPanic struct {
	t      *Thread
	values []Value
}

// PanicError wraps a Go panic that escaped a thread's thunk; it becomes the
// thread's error result instead of crashing the machine, so failures cross
// thread boundaries as exceptions.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// RemoteError wraps an error that crossed a thread boundary: a waiter that
// demands the value of a failed thread receives the failure wrapped with the
// identity of the thread it escaped from. This is the substrate half of
// STING's inter-thread exception model; language layers may install richer
// handlers in the dynamic environment.
type RemoteError struct {
	ThreadID   uint64
	ThreadName string
	Err        error
}

func (e *RemoteError) Error() string {
	if e.ThreadName != "" {
		return fmt.Sprintf("thread %d (%s): %v", e.ThreadID, e.ThreadName, e.Err)
	}
	return fmt.Sprintf("thread %d: %v", e.ThreadID, e.Err)
}

// Unwrap supports errors.Is/As through the thread boundary.
func (e *RemoteError) Unwrap() error { return e.Err }
