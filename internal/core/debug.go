package core

import (
	"fmt"
	"sort"
	"strings"
)

// Authority decides whether a requesting thread may change the target
// thread's state (§3.1: "state changes are recorded only if … the
// requesting thread has appropriate authority"). The default policy allows
// requests within the requester's genealogy subtree — a thread governs its
// descendants — plus self-requests; VMs may install their own policy.
type Authority func(requester, target *Thread) bool

// DefaultAuthority is the genealogy-subtree policy.
func DefaultAuthority(requester, target *Thread) bool {
	if requester == nil || requester == target {
		return true
	}
	for a := target; a != nil; a = a.parent {
		if a == requester {
			return true
		}
	}
	return false
}

// AllowAll grants every request (the permissive policy used when a VM does
// not care about authority).
func AllowAll(requester, target *Thread) bool { return true }

// SetAuthority installs the VM's authority policy; nil resets to permissive.
func (vm *VM) SetAuthority(a Authority) {
	vm.mu.Lock()
	vm.authority = a
	vm.mu.Unlock()
}

func (vm *VM) checkAuthority(requester, target *Thread) bool {
	vm.mu.Lock()
	a := vm.authority
	vm.mu.Unlock()
	if a == nil {
		return true
	}
	return a(requester, target)
}

// Terminate requests t's termination subject to the VM's authority policy;
// the package-level ThreadTerminate is the privileged (kernel) form.
func (ctx *Context) Terminate(t *Thread, values ...Value) error {
	if t.vm != nil && !t.vm.checkAuthority(ctx.Thread(), t) {
		return ErrNoAuthority
	}
	ThreadTerminate(t, values...)
	return nil
}

// RequestBlock is the authority-checked form of ThreadBlock for non-self
// targets.
func (ctx *Context) RequestBlock(t *Thread, blocker any) error {
	if t != ctx.Thread() && t.vm != nil && !t.vm.checkAuthority(ctx.Thread(), t) {
		return ErrNoAuthority
	}
	ctx.ThreadBlock(t, blocker)
	return nil
}

// RequestSuspend is the authority-checked form of ThreadSuspend.
func (ctx *Context) RequestSuspend(t *Thread, quantum int64) error {
	if t != ctx.Thread() && t.vm != nil && !t.vm.checkAuthority(ctx.Thread(), t) {
		return ErrNoAuthority
	}
	ctx.ThreadSuspend(t, 0)
	return nil
}

// DumpTree renders the genealogy below t — the paper's "dynamic unfolding
// of a process tree" monitoring facility. Each line shows a thread's id,
// name, state, and (for evaluating threads) execution status. A thread's
// children are the live members of its child group, in creation order; a
// child that is determined has left the tree. Live threads whose parent has
// left it are listed under their nearest live ancestor.
func DumpTree(t *Thread) string {
	var b strings.Builder
	dumpTree(&b, t, 0)
	return b.String()
}

func dumpTree(b *strings.Builder, t *Thread, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	name := t.name
	if name == "" {
		name = fmt.Sprintf("thread-%d", t.id)
	}
	st := t.State()
	fmt.Fprintf(b, "%s [%s", name, st)
	if st == Evaluating {
		fmt.Fprintf(b, "/%s", t.Exec())
	}
	b.WriteString("]")
	if g := t.group; g != nil {
		fmt.Fprintf(b, " group=%s", g.Name())
	}
	b.WriteByte('\n')
	if cg := t.peekChildGroup(); cg != nil {
		dumpGroup(b, cg, depth+1)
	}
}

// dumpGroup renders g's members and then, at the same depth, the members of
// each subgroup that no listed member owns: a child group whose owner was
// determined while a thread below it lives.
func dumpGroup(b *strings.Builder, g *Group, depth int) {
	owned := make(map[*Group]bool)
	for _, c := range g.Threads() {
		if cg := c.peekChildGroup(); cg != nil {
			owned[cg] = true
		}
		dumpTree(b, c, depth)
	}
	subs := g.Subgroups()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	for _, sub := range subs {
		if !owned[sub] {
			dumpGroup(b, sub, depth)
		}
	}
}
