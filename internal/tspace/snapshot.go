package tspace

import "repro/internal/core"

// Snapshotter is implemented by representations that can enumerate their
// passive tuples — fully-determined data with no thread elements — for
// persistence. Active tuples (those still holding threads) are skipped:
// a thread's thunk cannot outlive its address space, the same rule the
// wire codec enforces.
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

// PassiveTuples implements Snapshotter for the hash representation.
func (ts *hashTS) PassiveTuples() []Tuple {
	var out []Tuple
	ts.lists(func(b *entryList) { out = b.passive(out) })
	return out
}

// PassiveTuples implements Snapshotter for the bag, set, and (through
// embedding) queue representations.
func (ts *bagTS) PassiveTuples() []Tuple { return ts.list.passive(nil) }

// PassiveTuples implements Snapshotter for the shared variable.
func (ts *sharedVarTS) PassiveTuples() []Tuple {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.set || !passiveTuple(ts.tup) {
		return nil
	}
	return []Tuple{append(Tuple(nil), ts.tup...)}
}
