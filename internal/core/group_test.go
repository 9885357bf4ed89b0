package core

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGroupSuspendResume(t *testing.T) {
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		g := NewGroup("suspendable", nil)
		workers := make([]*Thread, 3)
		for i := range workers {
			workers[i] = ctx.Fork(func(c *Context) ([]Value, error) {
				for {
					c.Poll()
					c.Yield()
				}
			}, nil, WithGroup(g), WithStealable(false))
		}
		// Let them start, then suspend the whole group.
		for i := 0; i < 20; i++ {
			ctx.Yield()
		}
		g.Suspend(ctx)
		deadline := time.Now().Add(2 * time.Second)
		suspended := 0
		for suspended < len(workers) && time.Now().Before(deadline) {
			suspended = 0
			for _, w := range workers {
				if w.Exec() == ExecSuspended {
					suspended++
				}
			}
			ctx.Yield()
		}
		if suspended != len(workers) {
			t.Errorf("only %d/%d workers suspended", suspended, len(workers))
		}
		// Resume and verify they run again, then terminate.
		g.Resume()
		for i := 0; i < 20; i++ {
			ctx.Yield()
		}
		running := 0
		for _, w := range workers {
			if w.Exec() != ExecSuspended {
				running++
			}
		}
		if running == 0 {
			t.Error("no worker resumed")
		}
		g.Terminate()
		for _, w := range workers {
			ctx.Wait(w)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupHierarchy(t *testing.T) {
	parent := NewGroup("parent", nil)
	child := NewGroup("child", parent)
	grand := NewGroup("grand", child)
	if child.Parent() != parent || grand.Parent() != child {
		t.Fatal("parent links wrong")
	}
	if subs := parent.Subgroups(); len(subs) != 0 {
		t.Fatalf("empty child listed: subgroups %v", subs)
	}
	// A thread in the grandchild lists the chain above it, and its
	// determination unlists it again.
	th := newThread(nil, nil, nil, nil, obs.SpanContext{}, WithGroup(grand))
	if subs := parent.Subgroups(); len(subs) != 1 || subs[0] != child {
		t.Fatalf("subgroups %v", subs)
	}
	if subs := child.Subgroups(); len(subs) != 1 || subs[0] != grand {
		t.Fatalf("child's subgroups %v", subs)
	}
	th.determine(nil, nil)
	if n, m := len(parent.Subgroups()), len(child.Subgroups()); n != 0 || m != 0 {
		t.Fatalf("after determine: %d and %d subgroups listed", n, m)
	}
	if parent.Name() != "parent" || parent.ID() == child.ID() {
		t.Fatal("identity wrong")
	}
}

func TestGroupAllThreadsRecursive(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		top := NewGroup("top", nil)
		a := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(top))
		sub := NewGroup("sub", top)
		b := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(sub))
		all := top.AllThreads()
		if len(all) != 2 {
			t.Fatalf("AllThreads = %d, want 2", len(all))
		}
		seen := map[*Thread]bool{}
		for _, th := range all {
			seen[th] = true
		}
		if !seen[a] || !seen[b] {
			t.Fatal("missing members")
		}
		ThreadTerminate(a)
		ThreadTerminate(b)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupLiveExcludesDetermined(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		g := NewGroup("live-check", nil)
		done := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil },
			nil, WithGroup(g), WithStealable(false))
		ctx.Wait(done)
		pending := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(g))
		live := g.Threads()
		if len(live) != 1 || live[0] != pending {
			t.Fatalf("live = %v", live)
		}
		ThreadTerminate(pending)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupReset(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		g := NewGroup("resettable", nil)
		done := ctx.Fork(func(*Context) ([]Value, error) { return nil, nil },
			nil, WithGroup(g), WithStealable(false))
		ctx.Wait(done)
		pending := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithGroup(g))
		if n := g.Reset(); n != 0 {
			t.Errorf("reset dropped %d, want 0: the determined thread already left", n)
		}
		members := g.Threads()
		if len(members) != 1 || members[0] != pending {
			t.Errorf("members after reset: %v", members)
		}
		ThreadTerminate(pending)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
