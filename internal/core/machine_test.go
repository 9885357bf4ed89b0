package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMachineBootAndShutdown(t *testing.T) {
	m := NewMachine(MachineConfig{Processors: 3})
	if got := len(m.Processors()); got != 3 {
		t.Fatalf("processors = %d", got)
	}
	m.Shutdown()
	if !m.Stopped() {
		t.Fatal("not stopped")
	}
	m.Shutdown() // idempotent
	if _, err := m.NewVM(VMConfig{}); !errors.Is(err, ErrMachineStopped) {
		t.Fatalf("NewVM after shutdown: %v", err)
	}
}

func TestVPAssignmentBalanced(t *testing.T) {
	m := testMachine(t, 2)
	vm, err := m.NewVM(VMConfig{VPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[*PP]int{}
	for _, vp := range vm.VPs() {
		counts[vp.PP()]++
	}
	for pp, n := range counts {
		if n != 2 {
			t.Errorf("pp %d hosts %d VPs, want 2", pp.ID(), n)
		}
	}
}

func TestMoveVP(t *testing.T) {
	m := testMachine(t, 2)
	vm, err := m.NewVM(VMConfig{VPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	vp := vm.VP(0)
	src := vp.PP()
	var dst *PP
	for _, pp := range m.Processors() {
		if pp != src {
			dst = pp
		}
	}
	m.MoveVP(vp, dst)
	if vp.PP() != dst {
		t.Fatal("vp not moved")
	}
	// The VP still runs threads on its new processor.
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		k := ctx.Fork(func(*Context) ([]Value, error) { return []Value{"ok"}, nil }, vp)
		return ctx.Value(k)
	})
	if err != nil || vals[0] != "ok" {
		t.Fatalf("run after move: %v %v", vals, err)
	}
}

func TestAddVPGrowsVM(t *testing.T) {
	vm := testVM(t, 1, 1)
	if vm.NVPs() != 1 {
		t.Fatalf("nvps = %d", vm.NVPs())
	}
	vp, err := vm.AddVP()
	if err != nil {
		t.Fatal(err)
	}
	if vm.NVPs() != 2 || vp.Index() != 1 {
		t.Fatalf("nvps=%d index=%d", vm.NVPs(), vp.Index())
	}
	// pm-allocate-vp through the policy interface.
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		nvp := ctx.VP().PM().AllocateVP(vm)
		if nvp == nil {
			t.Error("AllocateVP returned nil")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm.NVPs() != 3 {
		t.Fatalf("nvps after pm-allocate-vp = %d", vm.NVPs())
	}
}

func TestVPModuloIndexing(t *testing.T) {
	vm := testVM(t, 1, 3)
	if vm.VP(0) != vm.VP(3) || vm.VP(1) != vm.VP(4) {
		t.Fatal("VP(i) not modulo")
	}
	if vm.VP(-1) != vm.VP(2) {
		t.Fatal("negative index not wrapped")
	}
}

func TestInterruptHandlers(t *testing.T) {
	vm := testVM(t, 1, 1)
	vp := vm.VP(0)
	var fired atomic.Int32
	vp.SetInterruptHandler(IntUser, func(v *VP, irq Interrupt) {
		if v != vp || irq != IntUser {
			t.Errorf("handler got %v %v", v, irq)
		}
		fired.Add(1)
	})
	if !vp.Deliver(IntUser) {
		t.Fatal("handler not invoked")
	}
	if vp.Deliver(IntIO) {
		t.Fatal("unregistered interrupt claimed a handler")
	}
	if fired.Load() != 1 {
		t.Fatalf("fired = %d", fired.Load())
	}
}

func TestTopologyNeighbors(t *testing.T) {
	cases := []struct {
		topo Topology
		n    int
		i    int
		want []int
	}{
		{Ring{}, 4, 0, []int{3, 1}},
		{Ring{}, 2, 0, []int{1}},
		{Ring{}, 1, 0, nil},
		{Mesh{Cols: 3}, 9, 4, []int{3, 5, 1, 7}},
		{Mesh{Cols: 3}, 9, 0, []int{1, 3}},
		{Torus{Cols: 3}, 9, 0, []int{2, 1, 6, 3}},
		{Hypercube{}, 8, 0, []int{1, 2, 4}},
		{Hypercube{}, 8, 5, []int{4, 7, 1}},
		{SystolicArray{}, 5, 0, []int{1}},
		{SystolicArray{}, 5, 2, []int{1, 3}},
		{SystolicArray{}, 5, 4, []int{3}},
	}
	for _, c := range cases {
		got := c.topo.Neighbors(c.i, c.n)
		if len(got) != len(c.want) {
			t.Errorf("%s n=%d i=%d: %v, want %v", c.topo.Name(), c.n, c.i, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("%s n=%d i=%d: %v, want %v", c.topo.Name(), c.n, c.i, got, c.want)
				break
			}
		}
	}
}

func TestSelfRelativeAddressing(t *testing.T) {
	m := testMachine(t, 1)
	vm, err := m.NewVM(VMConfig{VPs: 4, Topology: Mesh{Cols: 2}})
	if err != nil {
		t.Fatal(err)
	}
	vp0 := vm.VP(0)
	if LeftVP(vp0).Index() != 1 { // mesh(2): neighbors of 0 = [right=1, down=2]
		t.Errorf("left-vp of 0 = %d", LeftVP(vp0).Index())
	}
	if RightVP(vp0).Index() != 2 {
		t.Errorf("right-vp of 0 = %d", RightVP(vp0).Index())
	}
	// A 1-VP machine: self-relative addressing degrades to self.
	vm1, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if LeftVP(vm1.VP(0)) != vm1.VP(0) {
		t.Error("left-vp on singleton not self")
	}
}

func TestSystolicPlacementRoundTrip(t *testing.T) {
	// The paper's systolic-style self-relative placement: a pipeline of
	// threads, each forwarding to right-vp, must traverse the whole ring.
	vm := testVM(t, 2, 4)
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		var hop func(c *Context, remaining int, acc []int) ([]Value, error)
		hop = func(c *Context, remaining int, acc []int) ([]Value, error) {
			acc = append(acc, c.VP().Index())
			if remaining == 0 {
				return []Value{acc}, nil
			}
			next := c.Fork(func(cc *Context) ([]Value, error) {
				return hop(cc, remaining-1, acc)
			}, RightVP(c.VP()), WithStealable(false), WithPinned())
			return c.Value(next)
		}
		return hop(ctx, 4, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	path := vals[0].([]int)
	if len(path) != 5 {
		t.Fatalf("path %v", path)
	}
	for i := 1; i < len(path); i++ {
		if path[i] != (path[i-1]+1)%4 {
			t.Fatalf("path %v does not walk the ring", path)
		}
	}
}

func TestVMStatsAggregation(t *testing.T) {
	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		for i := 0; i < 10; i++ {
			k := ctx.Fork(func(c *Context) ([]Value, error) {
				c.Yield()
				return nil, nil
			}, nil, WithStealable(false))
			ctx.Wait(k)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := vm.Stats()
	if s.ThreadsCreated != 11 {
		t.Errorf("created = %d", s.ThreadsCreated)
	}
	if s.VPs.Dispatches == 0 || s.VPs.Switches == 0 {
		t.Errorf("vp stats empty: %+v", s.VPs)
	}
}

func TestPPStatsAdvance(t *testing.T) {
	m := testMachine(t, 1)
	vm, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(func(ctx *Context) ([]Value, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	pp := m.Processors()[0]
	if pp.Slices() == 0 {
		t.Error("no slices recorded")
	}
	deadline := time.Now().Add(time.Second)
	for pp.Idles() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if pp.Idles() == 0 {
		t.Error("idle accounting never advanced")
	}
}

func TestVMIsolationOfRootGroups(t *testing.T) {
	m := testMachine(t, 1)
	vm1, _ := m.NewVM(VMConfig{VPs: 1, Name: "a"})
	vm2, _ := m.NewVM(VMConfig{VPs: 1, Name: "b"})
	if vm1.RootGroup() == vm2.RootGroup() {
		t.Fatal("VMs share a root group")
	}
}

// TestFreshTCBAllocs pins what a TCB costs: a fresh one is the TCB and its
// resume channel, and a recycle-cache hit allocates nothing.
func TestFreshTCBAllocs(t *testing.T) {
	m := testMachine(t, 1)
	off, _ := m.NewVM(VMConfig{VPs: 1, VP: VPConfig{DisableTCBRecycling: true}})
	on, _ := m.NewVM(VMConfig{VPs: 1})
	fresh := testing.AllocsPerRun(100, func() { off.VP(0).putTCB(off.VP(0).takeTCB()) })
	if fresh > 2 {
		t.Errorf("fresh TCB = %v allocs, want ≤ 2", fresh)
	}
	hit := testing.AllocsPerRun(100, func() { on.VP(0).putTCB(on.VP(0).takeTCB()) })
	if hit != 0 {
		t.Errorf("cache hit = %v allocs, want 0", hit)
	}
}

// TestIdleLoopAllocatesNothing: an idle PP sleeps on its own timer and its
// VPs scan their siblings in place, so a machine with no work allocates
// nothing per idle turn.
func TestIdleLoopAllocatesNothing(t *testing.T) {
	m := testMachine(t, 2)
	if _, err := m.NewVM(VMConfig{VPs: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // the loops reach their idle sleep
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, _ := idleTurns(t, m, 200) // enough turns to drown the runtime's own few allocations
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(n); per >= 0.1 {
		t.Errorf("%.2f allocations per idle turn over %d turns, want < 0.1", per, n)
	}
}

// idleTurns lets m idle until its PPs have taken at least want idle turns
// and returns how many they took and the mean length of one PP's turn. It
// allocates nothing while it waits.
func idleTurns(t *testing.T, m *Machine, want uint64) (uint64, time.Duration) {
	pps := m.Processors()
	sum := func() (n uint64) {
		for _, pp := range pps {
			n += pp.Idles()
		}
		return n
	}
	n0, t0 := sum(), time.Now()
	for sum()-n0 < want {
		if time.Since(t0) > 10*time.Second {
			t.Fatalf("%d idle turns in 10s, want %d", sum()-n0, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	n := sum() - n0
	return n, time.Since(t0) * time.Duration(len(pps)) / time.Duration(n)
}

// TestKickedIdlePPDispatchesAtOnce: a PP asleep on its armed idle timer
// wakes on the kick that new work sends, not when the timer fires. A token
// hops between two VPs on two PPs, and each hop lands on a PP that went to
// sleep when the hop before last left it. Were the kick lost, each hop
// would wait out the rest of that sleep: half an idle turn on average. The
// turn is measured, not taken as idleWait, since the Go runtime rounds an
// idle process's sleeps up to its timer granularity (about 1ms on Linux).
// Where sleeps are precise the turn is too short to tell a lost kick from a
// slow hop (50-70µs under the race detector), so the test skips.
func TestKickedIdlePPDispatchesAtOnce(t *testing.T) {
	const hops = 200
	m := testMachine(t, 2)
	vm, err := m.NewVM(VMConfig{VPs: 2, PolicyFactory: func(vp *VP) PolicyManager {
		return WorkStealing(vp, false, true, false) // no migration: each hop stays put
	}})
	if err != nil {
		t.Fatal(err)
	}
	if vm.VP(0).PP() == vm.VP(1).PP() {
		t.Fatal("both VPs on one PP")
	}
	_, turn := idleTurns(t, m, 40)
	if turn < 400*time.Microsecond {
		t.Skipf("idle turn %v: too short to tell a lost kick from a slow hop", turn)
	}
	var last time.Time
	done := make(chan struct{})
	var hop func(i int) Thunk
	hop = func(i int) Thunk {
		return func(ctx *Context) ([]Value, error) {
			if i == hops {
				last = time.Now()
				close(done)
			} else {
				ctx.Fork(hop(i+1), vm.VP(i+1))
			}
			return nil, nil
		}
	}
	t0 := time.Now()
	vm.SpawnOn(vm.VP(0), hop(0))
	<-done
	if mean := last.Sub(t0) / hops; mean >= turn/3 {
		t.Errorf("mean hop %v against an idle turn of %v: a kicked PP waited for its timer", mean, turn)
	}
}
