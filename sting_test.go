package sting

// Integration tests over the public facade: every subsystem reachable from
// the sting package exercised through its exported surface, the way a
// downstream user would.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func boot(t testing.TB, procs, vps int) *VM {
	t.Helper()
	m := NewMachine(MachineConfig{Processors: procs})
	t.Cleanup(m.Shutdown)
	vm, err := m.NewVM(VMConfig{VPs: vps})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	return vm
}

func TestFacadeQuickstart(t *testing.T) {
	vm := boot(t, 2, 2)
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) {
			return []Value{21 * 2}, nil
		}, nil)
		return ctx.Value(child)
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 42 {
		t.Fatalf("got %v", vals)
	}
}

func TestFacadeParallelMapReduce(t *testing.T) {
	vm := boot(t, 4, 4)
	const n = 64
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		futuresList := make([]*Future, n)
		for i := range futuresList {
			i := i
			futuresList[i] = SpawnFuture(ctx, func(*Context) (Value, error) {
				return i * i, nil
			})
		}
		results, err := TouchAll(ctx, futuresList)
		if err != nil {
			return nil, err
		}
		sum := 0
		for _, v := range results {
			sum += v.(int)
		}
		return []Value{sum}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i * i
	}
	if vals[0] != want {
		t.Fatalf("sum = %v, want %d", vals[0], want)
	}
}

func TestFacadeTupleSpacePipeline(t *testing.T) {
	vm := boot(t, 2, 4)
	const jobs = 50
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ts := NewTupleSpace(KindQueue, TupleSpaceConfig{})
		worker := func(c *Context) ([]Value, error) {
			handled := 0
			for {
				_, bind, err := ts.Get(c, Template{"job", Formal("n")})
				if err != nil {
					return nil, err
				}
				n := bind["n"].(int)
				if n < 0 {
					return []Value{handled}, nil
				}
				if err := ts.Put(c, Tuple{"done", n * 2}); err != nil {
					return nil, err
				}
				handled++
			}
		}
		w1 := ctx.Fork(worker, vm.VP(1))
		w2 := ctx.Fork(worker, vm.VP(2))
		for i := 0; i < jobs; i++ {
			if err := ts.Put(ctx, Tuple{"job", i}); err != nil {
				return nil, err
			}
		}
		total := 0
		for i := 0; i < jobs; i++ {
			_, bind, err := ts.Get(ctx, Template{"done", Formal("v")})
			if err != nil {
				return nil, err
			}
			total += bind["v"].(int)
		}
		_ = ts.Put(ctx, Tuple{"job", -1})
		_ = ts.Put(ctx, Tuple{"job", -1})
		ctx.Wait(w1)
		ctx.Wait(w2)
		return []Value{total}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := jobs * (jobs - 1) // sum of 2i
	if vals[0] != want {
		t.Fatalf("total = %v, want %d", vals[0], want)
	}
}

func TestFacadeSpeculation(t *testing.T) {
	vm := boot(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		set := NewTaskSet(ctx, "race")
		set.Speculate(1, func(c *Context) ([]Value, error) {
			for {
				c.Yield()
			}
		})
		set.Speculate(9, func(*Context) ([]Value, error) {
			return []Value{"winner"}, nil
		})
		vals, err := set.First()
		if err != nil {
			return nil, err
		}
		if vals[0] != "winner" {
			t.Errorf("first = %v", vals[0])
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStreams(t *testing.T) {
	vm := boot(t, 2, 2)
	vals, err := vm.Run(func(ctx *Context) ([]Value, error) {
		s := IntegerStream(ctx, 10)
		collected, err := s.Collect(ctx)
		if err != nil {
			return nil, err
		}
		return []Value{len(collected)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 9 { // 2..10
		t.Fatalf("collected %v", vals[0])
	}
}

func TestFacadeGroupTermination(t *testing.T) {
	vm := boot(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		parent := ctx.Fork(func(c *Context) ([]Value, error) {
			c.Fork(func(cc *Context) ([]Value, error) {
				for {
					cc.Yield()
				}
			}, nil, WithStealable(false))
			for {
				c.Yield()
			}
		}, nil, WithStealable(false))
		for len(parent.Children()) == 0 {
			ctx.Yield()
		}
		parent.ChildGroup().Terminate()
		ThreadTerminate(parent)
		ctx.Wait(parent)
		for _, c := range parent.Children() {
			ctx.Wait(c)
			if !c.Terminated() {
				t.Error("child survived group termination")
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCustomPolicyManager(t *testing.T) {
	// A user-written policy manager: strict FIFO with an instrumented
	// counter, demonstrating the §3.3 customization point end to end.
	// Serialization is the manager's own concern (the paper's fourth
	// classification dimension), so the test PM carries its lock.
	type countingPM struct {
		mu       sync.Mutex
		q        []Runnable
		enqueues int
	}
	pms := map[*VP]*countingPM{}
	vmx := func() *VM {
		m := NewMachine(MachineConfig{Processors: 1})
		t.Cleanup(m.Shutdown)
		vm, err := m.NewVM(VMConfig{
			VPs: 1,
			PolicyFactory: func(vp *VP) PolicyManager {
				pm := &countingPM{}
				pms[vp] = pm
				return policyFuncs{
					next: func(*VP) Runnable {
						pm.mu.Lock()
						defer pm.mu.Unlock()
						if len(pm.q) == 0 {
							return nil
						}
						r := pm.q[0]
						pm.q = pm.q[1:]
						return r
					},
					enqueue: func(_ *VP, r Runnable, _ EnqueueState) {
						pm.mu.Lock()
						defer pm.mu.Unlock()
						pm.enqueues++
						pm.q = append(pm.q, r)
					},
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}()
	vals, err := vmx.Run(func(ctx *Context) ([]Value, error) {
		a := ctx.Fork(func(*Context) ([]Value, error) { return []Value{1}, nil }, nil,
			WithStealable(false))
		b := ctx.Fork(func(*Context) ([]Value, error) { return []Value{2}, nil }, nil,
			WithStealable(false))
		va, err := ctx.Value1(a)
		if err != nil {
			return nil, err
		}
		vb, err := ctx.Value1(b)
		if err != nil {
			return nil, err
		}
		return []Value{va.(int) + vb.(int)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3 {
		t.Fatalf("got %v", vals)
	}
	total := 0
	for _, pm := range pms {
		pm.mu.Lock()
		total += pm.enqueues
		pm.mu.Unlock()
	}
	if total == 0 {
		t.Fatal("custom policy manager never saw an enqueue")
	}
}

// policyFuncs adapts closures to the PolicyManager interface for the test.
type policyFuncs struct {
	next    func(vp *VP) Runnable
	enqueue func(vp *VP, r Runnable, st EnqueueState)
}

// Runnable and EnqueueState are re-exported for custom managers.
func (p policyFuncs) GetNextThread(vp *VP) Runnable { return p.next(vp) }
func (p policyFuncs) EnqueueThread(vp *VP, r Runnable, st EnqueueState) {
	p.enqueue(vp, r, st)
}
func (p policyFuncs) SetPriority(*VP, *Thread, int)          {}
func (p policyFuncs) SetQuantum(*VP, *Thread, time.Duration) {}
func (p policyFuncs) AllocateVP(vm *VM) *VP                  { vp, _ := vm.AddVP(); return vp }
func (p policyFuncs) VPIdle(*VP)                             {}

func TestFacadeErrorPropagation(t *testing.T) {
	vm := boot(t, 1, 1)
	boom := errors.New("kaput")
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) {
			return nil, boom
		}, nil)
		_, err := ctx.Value(child)
		return nil, err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the child failure", err)
	}
}

func TestFacadeTopologies(t *testing.T) {
	m := NewMachine(MachineConfig{Processors: 1})
	t.Cleanup(m.Shutdown)
	for _, tc := range []struct {
		topo Topology
		vps  int
	}{
		{Ring{}, 4},
		{Mesh{Cols: 2}, 4},
		{Torus{Cols: 2}, 4},
		{Hypercube{}, 8},
		{SystolicArray{}, 5},
	} {
		vm, err := m.NewVM(VMConfig{VPs: tc.vps, Topology: tc.topo})
		if err != nil {
			t.Fatal(err)
		}
		for _, vp := range vm.VPs() {
			for _, n := range NeighborVPs(vp) {
				if n == nil {
					t.Errorf("%s: nil neighbor of vp %d", tc.topo.Name(), vp.Index())
				}
			}
		}
	}
}

func TestFacadeMultipleVMsIsolated(t *testing.T) {
	m := NewMachine(MachineConfig{Processors: 2})
	t.Cleanup(m.Shutdown)
	vm1, err := m.NewVM(VMConfig{Name: "one", VPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := m.NewVM(VMConfig{Name: "two", VPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(vm *VM, tag string) ([]Value, error) {
		return vm.Run(func(ctx *Context) ([]Value, error) {
			kids := make([]*Thread, 10)
			for i := range kids {
				kids[i] = ctx.Fork(func(*Context) ([]Value, error) {
					return []Value{tag}, nil
				}, nil)
			}
			for _, k := range kids {
				if v, err := ctx.Value1(k); err != nil || v != tag {
					return nil, fmt.Errorf("cross-VM leak: %v %v", v, err)
				}
			}
			return []Value{tag}, nil
		})
	}
	if _, err := run(vm1, "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := run(vm2, "two"); err != nil {
		t.Fatal(err)
	}
	if vm1.Stats().ThreadsCreated != vm2.Stats().ThreadsCreated {
		t.Fatalf("VM thread accounting differs: %d vs %d",
			vm1.Stats().ThreadsCreated, vm2.Stats().ThreadsCreated)
	}
}

// TestFacadeObservability drives the obs surface through the public
// exports: register a VM collector and a custom source, render the
// gathered metrics as Prometheus text, and export trace events as Chrome
// trace_event JSON.
func TestFacadeObservability(t *testing.T) {
	vm := boot(t, 2, 2)
	trace := NewTraceRing(1024)
	SetTracer(trace.Record)
	defer SetTracer(nil)

	if _, err := vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) { return []Value{1}, nil }, nil)
		return ctx.Value(child)
	}); err != nil {
		t.Fatal(err)
	}

	hist := NewObsHistogram()
	hist.Observe(0.004)
	reg := NewObsRegistry()
	reg.Register("vm", VMCollector{VM: vm})
	reg.Register("trace", TraceCollector{Ring: trace})
	reg.Register("app", ObsCollectorFunc(func() []ObsMetric {
		return []ObsMetric{ObsHistogramSample("app_latency_seconds", "App-defined latency.", hist)}
	}))

	var prom strings.Builder
	if err := WritePrometheus(&prom, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"sting_vp_dispatches_total", "sting_trace_events", "app_latency_seconds_bucket"} {
		if !strings.Contains(prom.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}

	var chrome strings.Builder
	if err := WriteChromeTrace(&chrome, ObsTraceEvents(trace.Tail(trace.Cap()))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Error("trace export missing traceEvents array")
	}
	if DefaultRegistry == nil {
		t.Error("DefaultRegistry is nil")
	}
}
