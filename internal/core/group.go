package core

import (
	"sync"
	"sync/atomic"
	"time"
)

var groupIDs atomic.Uint64

// Group is a thread group: a means of gaining control over a related
// collection of threads. Every thread carries a group identifier
// associating it with a group; groups provide operations analogous to
// ordinary thread operations applied en masse (termination, suspension) as
// well as debugging and monitoring operations (listing members, profiling
// genealogy information).
//
// Genealogy holds only what is live. A thread is a member from its creation
// until it is determined, and a group is listed among its parent's
// subgroups only while some live thread is below it, so an orphaned
// grandchild stays within reach of kill-group and nothing determined
// accumulates. The created and determined counters keep the history.
type Group struct {
	id     uint64
	name   string
	parent *Group

	mu       sync.Mutex // guards the member list and children; taken child before parent
	first    *Thread    // members, newest first, linked through Thread.prev/next
	size     int
	children map[*Group]struct{} // subgroups with a live thread below them

	created    atomic.Uint64
	determined atomic.Uint64
}

// NewGroup creates a group; parent may be nil for root groups. The group
// joins parent's subgroups when its first thread does.
func NewGroup(name string, parent *Group) *Group {
	return &Group{id: groupIDs.Add(1), name: name, parent: parent}
}

// ID returns the group identifier.
func (g *Group) ID() uint64 { return g.id }

// Name returns the group's debugging name.
func (g *Group) Name() string { return g.name }

// Parent returns the enclosing group, or nil.
func (g *Group) Parent() *Group { return g.parent }

func (g *Group) add(t *Thread) {
	g.created.Add(1)
	g.mu.Lock()
	if t.next = g.first; t.next != nil {
		t.next.prev = t
	}
	g.first = t
	g.size++
	g.relink(true)
	g.mu.Unlock()
}

// remove drops a thread that is being determined.
func (g *Group) remove(t *Thread) {
	g.determined.Add(1)
	g.mu.Lock()
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		g.first = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
	g.size--
	g.relink(false)
	g.mu.Unlock()
}

// relink keeps g listed in its parent's subgroups exactly while g holds a
// member or a listed subgroup. It runs with g.mu held after one entry was
// added (grew) or removed, and on the empty↔non-empty step takes the
// parent's lock under g's and repeats there, cascading upward.
func (g *Group) relink(grew bool) {
	p, n := g.parent, g.size+len(g.children)
	if p == nil || grew && n != 1 || !grew && n != 0 {
		return
	}
	p.mu.Lock()
	if !grew {
		delete(p.children, g)
	} else if p.children == nil {
		p.children = map[*Group]struct{}{g: {}}
	} else {
		p.children[g] = struct{}{}
	}
	p.relink(grew)
	p.mu.Unlock()
}

// Threads lists the group's live members, oldest first.
func (g *Group) Threads() []*Thread {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Thread, g.size)
	for t, i := g.first, g.size-1; t != nil; t, i = t.next, i-1 {
		out[i] = t
	}
	return out
}

// Subgroups lists the child groups that have a live thread below them; a
// child group that empties leaves the list and rejoins with its next
// thread.
func (g *Group) Subgroups() []*Group {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Group, 0, len(g.children))
	for c := range g.children {
		out = append(out, c)
	}
	return out
}

// AllThreads lists the group's members and, recursively, every member of
// its subgroups (a thread subtree, under the child-group genealogy).
func (g *Group) AllThreads() []*Thread {
	out := g.Threads()
	for _, sub := range g.Subgroups() {
		out = append(out, sub.AllThreads()...)
	}
	return out
}

// Terminate terminates every member thread and, recursively, every
// subgroup (the paper's kill-group).
func (g *Group) Terminate() {
	for _, t := range g.Threads() {
		ThreadTerminate(t)
	}
	for _, sub := range g.Subgroups() {
		sub.Terminate()
	}
}

// Suspend requests suspension of every member.
func (g *Group) Suspend(ctx *Context) {
	for _, t := range g.Threads() {
		if t != ctx.Thread() {
			ctx.ThreadSuspend(t, 0)
		}
	}
}

// Resume reschedules every suspended member.
func (g *Group) Resume() {
	for _, t := range g.Threads() {
		if t.Exec() == ExecSuspended {
			_ = ThreadRun(t, pickVP(t))
		}
	}
}

// Reset is the "resetting" debugging operation of §3.1: it drops
// determined members from the group's bookkeeping. A thread leaves its
// group when it is determined, so there is never one to drop, and Reset
// returns 0.
func (g *Group) Reset() int { return 0 }

// GroupProfile summarizes the dynamic unfolding of a group's process tree,
// the genealogy-based monitoring facility described in §3.1.
type GroupProfile struct {
	Group      string
	Created    uint64
	Determined uint64
	Live       int
	ByState    map[ThreadState]int
	MaxDepth   int // deepest parent chain among members
	Subgroups  int
	At         time.Time
}

// Profile computes a snapshot profile of the group.
func (g *Group) Profile() GroupProfile {
	p := GroupProfile{
		Group:      g.name,
		Created:    g.created.Load(),
		Determined: g.determined.Load(),
		ByState:    make(map[ThreadState]int),
		At:         time.Now(),
	}
	threads := g.Threads()
	p.Live = len(threads)
	for _, t := range threads {
		p.ByState[t.State()]++
		depth := 0
		for a := t.parent; a != nil; a = a.parent {
			depth++
		}
		if depth > p.MaxDepth {
			p.MaxDepth = depth
		}
	}
	p.Subgroups = len(g.Subgroups())
	return p
}
