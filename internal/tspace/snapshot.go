package tspace

import "repro/internal/core"

// Snapshotter is implemented by every local space: it enumerates the
// passive tuples — fully-determined data with no thread elements — for
// persistence, in a form Put restores (a semaphore lists one empty tuple
// per token, a vector its full slots as [index, value]). Active tuples
// (those still holding threads) are skipped: a thread's thunk cannot
// outlive its address space, the same rule the wire codec enforces.
type Snapshotter interface {
	PassiveTuples() []Tuple
}

func passiveTuple(tup Tuple) bool {
	for _, v := range tup {
		if _, isThread := v.(*core.Thread); isThread {
			return false
		}
	}
	return true
}
