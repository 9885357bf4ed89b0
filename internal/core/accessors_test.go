package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestAccessorsAndEdges(t *testing.T) {
	vm := testVM(t, 1, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		me := ctx.Thread()
		tcb := ctx.TCB()

		// TCB accessors.
		if tcb.Thread() != me {
			t.Error("TCB.Thread mismatch")
		}
		if tcb.VP() != ctx.VP() {
			t.Error("TCB.VP mismatch")
		}
		before := tcb.Polls()
		ctx.Poll()
		if tcb.Polls() <= before {
			t.Error("poll counter stuck")
		}

		// Thread option accessors.
		named := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil },
			WithName("fancy"), WithPriority(5), WithQuantum(time.Millisecond))
		if named.Name() != "fancy" || named.Priority() != 5 ||
			named.Quantum() != time.Millisecond {
			t.Errorf("options lost: %q %d %v", named.Name(), named.Priority(), named.Quantum())
		}
		if s := named.String(); !strings.Contains(s, "fancy") {
			t.Errorf("String() = %q", s)
		}
		ThreadTerminate(named)

		// Context hints route through the policy manager.
		ctx.SetPriority(3)
		if me.Priority() != 3 {
			t.Errorf("priority = %d", me.Priority())
		}
		ctx.SetQuantum(2 * time.Millisecond)
		if me.Quantum() != 2*time.Millisecond {
			t.Errorf("quantum = %v", me.Quantum())
		}
		ctx.SetQuantum(0) // restore: no preemption for the rest

		// Interrupt state.
		if ctx.InterruptsDisabled() {
			t.Error("interrupts disabled outside without-interrupts")
		}
		ctx.WithoutInterrupts(func() {
			if !ctx.InterruptsDisabled() {
				t.Error("not disabled inside without-interrupts")
			}
		})

		// Fluid environment snapshot and depth.
		base := ctx.FluidEnvSnapshot()
		ctx.FluidLet("k", 1, func() {
			snap := ctx.FluidEnvSnapshot()
			if snap.Depth() != base.Depth()+1 {
				t.Errorf("depth %d, want %d", snap.Depth(), base.Depth()+1)
			}
		})

		// BlockUntil/WakeTCB round trip through a helper thread. (No Go
		// channels here: blocking a STING thread outside the TC would
		// freeze its VP.)
		var flag atomic.Bool
		var wtp atomic.Pointer[TCB]
		w := ctx.Fork(func(c *Context) ([]Value, error) {
			wtp.Store(c.TCB())
			c.BlockUntil(flag.Load)
			return one("ok"), nil
		}, vm.VP(1), WithStealable(false), WithPinned())
		for wtp.Load() == nil {
			ctx.Yield()
		}
		flag.Store(true)
		WakeTCB(wtp.Load())
		if v, err := ctx.Value1(w); err != nil || v != "ok" {
			t.Errorf("BlockUntil round trip: %v %v", v, err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorMessages(t *testing.T) {
	pe := &PanicError{Value: "zap"}
	if !strings.Contains(pe.Error(), "zap") {
		t.Errorf("PanicError = %q", pe.Error())
	}
	re := &RemoteError{ThreadID: 9, ThreadName: "w", Err: errors.New("x")}
	if !strings.Contains(re.Error(), "w") || !strings.Contains(re.Error(), "x") {
		t.Errorf("RemoteError = %q", re.Error())
	}
	anon := &RemoteError{ThreadID: 9, Err: errors.New("y")}
	if !strings.Contains(anon.Error(), "9") {
		t.Errorf("RemoteError = %q", anon.Error())
	}
}

func TestRemoteThreadBlockRequest(t *testing.T) {
	vm := testVM(t, 2, 2)
	started := make(chan *Thread, 1)
	target := vm.Spawn(func(ctx *Context) ([]Value, error) {
		started <- ctx.Thread()
		for i := 0; ; i++ {
			ctx.Poll() // the block request lands here
		}
	})
	victim := <-started
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ctx.ThreadBlock(victim, "remote")
		for victim.Exec() != ExecBlocked {
			ctx.Yield()
		}
		// Unblock it, then terminate.
		if err := ThreadRun(victim, ctx.VP()); err != nil {
			return nil, err
		}
		ThreadTerminate(victim)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinThread(target); !errors.Is(err, ErrTerminated) {
		t.Fatalf("join: %v", err)
	}
}

func TestAuthorityHelpers(t *testing.T) {
	if !AllowAll(nil, nil) {
		t.Error("AllowAll said no")
	}
	vm := testVM(t, 1, 1)
	vm.SetAuthority(DefaultAuthority)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(c *Context) ([]Value, error) {
			for {
				c.Poll()
			}
		}, nil, WithStealable(false))
		if err := ctx.RequestBlock(child, "auth"); err != nil {
			t.Errorf("RequestBlock on child: %v", err)
		}
		if err := ctx.RequestSuspend(child, 0); err != nil {
			t.Errorf("RequestSuspend on child: %v", err)
		}
		ThreadTerminate(child)
		ctx.Wait(child)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTBTarget(t *testing.T) {
	vm := testVM(t, 1, 1)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		gen := ctx.TCB().beginWait(1)
		tb := &TB{tcb: ctx.TCB(), gen: gen}
		target := ctx.CreateThread(func(*Context) ([]Value, error) { return nil, nil })
		if target.addWaiter(tb); tb.Target() != target {
			t.Error("TB target not recorded")
		}
		ThreadTerminate(target) // fires the barrier; count reaches zero
		if !ctx.TCB().waitSatisfied(gen) {
			t.Error("barrier did not count down")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPMHintsAndLen(t *testing.T) {
	pm := defaultPolicy(nil).(*workQueue)
	if pm.Len() != 0 {
		t.Fatal("fresh PM non-empty")
	}
	pm.SetPriority(nil, nil, 1)               // documented no-ops
	pm.SetQuantum(nil, nil, time.Millisecond) // must not panic
	vm := testVM(t, 1, 1)                     // AllocateVP grows the VM
	if vp := pm.AllocateVP(vm); vp == nil {
		t.Fatal("AllocateVP failed")
	}
}

func TestRoundRobinVPsPolicyHooks(t *testing.T) {
	p := &RoundRobinVPs{}
	p.Attached(nil, nil) // interface no-ops must be callable
	p.Detached(nil, nil)
	m := testMachine(t, 1)
	vm, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	pp := m.Processors()[0]
	if got := p.Next(pp); got == nil {
		t.Fatal("Next returned nil with an attached VP")
	}
	_ = vm
}

func TestPPIdentityAccessors(t *testing.T) {
	m := testMachine(t, 2)
	vm, err := m.NewVM(VMConfig{VPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range m.Processors() {
		if len(pp.VPs()) == 0 {
			t.Errorf("pp %d hosts no VPs", pp.ID())
		}
	}
	if len(m.VMs()) != 1 || m.VMs()[0] != vm {
		t.Error("VM registry wrong")
	}
	if vm.Machine() != m || vm.Name() == "" || vm.ID() == 0 {
		t.Error("vm identity accessors wrong")
	}
	if vm.Topology().Name() != "ring" {
		t.Errorf("default topology %q", vm.Topology().Name())
	}
}
