package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDequeOwnerOrder checks the single-goroutine contract: PushBottom/
// PopBottom is LIFO, owner-side Steal is FIFO, and growth past the initial
// ring size preserves every element.
func TestDequeOwnerOrder(t *testing.T) {
	var d Deque
	n := dequeInitialSize * 4 // force two growths
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = &Thread{id: uint64(i + 1)}
		d.PushBottom(threads[i])
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n/2; i++ { // LIFO from the bottom
		if got := d.PopBottom(); got != threads[n-1-i] {
			t.Fatalf("PopBottom %d = %v", i, got)
		}
	}
	for i := 0; i < n/2; i++ { // FIFO from the top
		got, retry := d.Steal()
		if retry || got != threads[i] {
			t.Fatalf("Steal %d = %v retry=%v", i, got, retry)
		}
	}
	if d.Len() != 0 || d.PopBottom() != nil {
		t.Fatal("deque not empty after draining both ends")
	}
}

// TestDequeSweep checks that stolen slots keep their threads until the
// deque is empty, and that Sweep then clears every one of them.
func TestDequeSweep(t *testing.T) {
	var d Deque
	held := func() (n int) {
		a := d.array.Load()
		for i := range a.slots {
			if a.slots[i].Load() != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 3; i++ {
		d.PushBottom(&Thread{id: uint64(i + 1)})
	}
	d.Steal()
	d.Sweep() // not empty: must leave the live slots alone
	if got := held(); got != 3 {
		t.Fatalf("after one steal and a sweep of a non-empty deque: %d slots held, want 3", got)
	}
	d.Steal()
	d.Steal()
	d.Sweep()
	if got := held(); got != 0 {
		t.Fatalf("after Sweep of an empty deque: %d slots still hold threads", got)
	}
}

// TestDequeTorture races one owner (pushing and popping its own bottom)
// against several thieves and checks that every pushed thread is delivered
// exactly once — no losses, no duplicates. Run under -race this also proves
// the memory discipline of the slot array.
func TestDequeTorture(t *testing.T) {
	const (
		total   = 20000
		thieves = 4
	)
	var d Deque
	delivered := make([]atomic.Int32, total+1)
	record := func(th *Thread) {
		if th == nil {
			return
		}
		if delivered[th.id].Add(1) != 1 {
			t.Errorf("thread %d delivered twice", th.id)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if th, _ := d.Steal(); th != nil {
					record(th)
				}
			}
			// Final sweep so in-flight pushes are not stranded.
			for {
				th, retry := d.Steal()
				if th != nil {
					record(th)
				} else if !retry {
					return
				}
			}
		}()
	}
	next := uint64(1)
	for next <= total {
		// Push a small burst, then pop some back — the owner's real pattern.
		for b := 0; b < 7 && next <= total; b++ {
			d.PushBottom(&Thread{id: next})
			next++
		}
		for b := 0; b < 3; b++ {
			record(d.PopBottom())
		}
	}
	for {
		th := d.PopBottom()
		if th == nil {
			break
		}
		record(th)
	}
	stop.Store(true)
	wg.Wait()
	for id := 1; id <= total; id++ {
		if delivered[id].Load() != 1 {
			t.Fatalf("thread %d delivered %d times", id, delivered[id].Load())
		}
	}
}

// TestStealHalfInto checks the batch steal takes about half and loses
// nothing.
func TestStealHalfInto(t *testing.T) {
	var src, dst Deque
	for i := 1; i <= 100; i++ {
		src.PushBottom(&Thread{id: uint64(i)})
	}
	n := src.StealHalfInto(&dst, 0)
	if n != 50 {
		t.Fatalf("moved %d, want 50", n)
	}
	if src.Len()+dst.Len() != 100 {
		t.Fatalf("lost elements: src=%d dst=%d", src.Len(), dst.Len())
	}
	if n := src.StealHalfInto(&dst, 10); n != 10 {
		t.Fatalf("cap ignored: moved %d, want 10", n)
	}
}

// TestInboxScavenge checks a thief can take eligible threads out of the
// intake while TCBs and pinned threads are pushed back, still pending for
// the owner.
func TestInboxScavenge(t *testing.T) {
	var in Inbox
	pinned := &Thread{id: 1}
	pinned.pinned.Store(true)
	free := &Thread{id: 2}
	tcb := &TCB{}
	in.Push(pinned, EnqNew)
	in.Push(free, EnqNew)
	in.Push(tcb, EnqUserBlock)
	var got []*Thread
	returned := in.Scavenge(func(r Runnable, st EnqueueState) bool {
		if th, ok := r.(*Thread); ok && !th.Pinned() {
			got = append(got, th)
			return true
		}
		return false
	})
	if len(got) != 1 || got[0] != free {
		t.Fatalf("scavenged %v", got)
	}
	if returned != 2 || in.Len() != 2 {
		t.Fatalf("returned=%d len=%d, want 2 2", returned, in.Len())
	}
	var back []Runnable
	in.Drain(func(r Runnable, st EnqueueState) { back = append(back, r) })
	if len(back) != 2 || back[0] != Runnable(pinned) || back[1] != Runnable(tcb) {
		t.Fatalf("drain after scavenge = %v (order lost)", back)
	}
}

// TestWorkQueueYieldDeferred checks deferYield routes yielded TCBs behind
// ready work in the default (LIFO) configuration.
func TestWorkQueueYieldDeferred(t *testing.T) {
	q := defaultPolicy(nil)
	tcb := &TCB{}
	a, b := &Thread{id: 1}, &Thread{id: 2}
	q.EnqueueThread(nil, tcb, EnqYield)
	q.EnqueueThread(nil, a, EnqNew)
	q.EnqueueThread(nil, b, EnqNew)
	if got := q.GetNextThread(nil); got != Runnable(b) { // LIFO
		t.Fatalf("first = %v, want b", got)
	}
	if got := q.GetNextThread(nil); got != Runnable(a) {
		t.Fatalf("second = %v, want a", got)
	}
	if got := q.GetNextThread(nil); got != Runnable(tcb) { // deferred last
		t.Fatalf("third = %v, want the yielded TCB", got)
	}
	if q.GetNextThread(nil) != nil {
		t.Fatal("queue should be empty")
	}
}

// TestPinnedNeverStolen is the -race stress for the placement promise: a
// storm of pinned threads lands on VP 0 while sibling VPs idle and steal
// everything else; every pinned thread must still run on VP 0.
func TestPinnedNeverStolen(t *testing.T) {
	vm := testVM(t, 4, 4)
	const pinnedN, decoyN = 200, 200
	var wrongVP atomic.Int64
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		all := make([]*Thread, 0, pinnedN+decoyN)
		for i := 0; i < pinnedN; i++ {
			all = append(all, ctx.Fork(func(c *Context) ([]Value, error) {
				if c.VP().Index() != 0 {
					wrongVP.Add(1)
				}
				c.Yield() // travel through the re-enqueue path too
				if c.VP().Index() != 0 {
					wrongVP.Add(1)
				}
				return nil, nil
			}, vm.VP(0), WithPinned()))
			// Interleave migratable decoys so thieves always have bait in
			// the same inbox and deque.
			all = append(all, ctx.Fork(func(c *Context) ([]Value, error) {
				c.Yield()
				return nil, nil
			}, vm.VP(0)))
		}
		ctx.BlockOnGroup(len(all), all)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := wrongVP.Load(); n != 0 {
		t.Fatalf("%d pinned dispatches happened off VP 0", n)
	}
}
