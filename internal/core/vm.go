package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

var vmIDs atomic.Uint64

// VM is a virtual machine: a collection of virtual processors. Virtual
// machines are denotable objects; several can execute on one physical
// machine. The VM's public state includes the vector of its virtual
// processors, which programs may enumerate to place threads explicitly.
type VM struct {
	id      uint64
	name    string
	machine *Machine

	mu  sync.Mutex
	vps []*VP

	vpConfig  VPConfig
	pmFactory func(vp *VP) PolicyManager

	rootGroup *Group
	topology  Topology
	authority Authority

	stats VMStats
}

// VMConfig parameterizes virtual-machine construction.
type VMConfig struct {
	Name string
	// VPs is the number of virtual processors (default: one per physical
	// processor of the machine).
	VPs int
	// PolicyFactory builds the policy manager each VP is closed over.
	// Different VPs may receive different managers. Nil selects the
	// machine's default factory.
	PolicyFactory func(vp *VP) PolicyManager
	// VP carries per-VP parameters (quantum, TCB recycling).
	VP VPConfig
	// Topology names the VP interconnection used for self-relative
	// addressing; nil means a ring.
	Topology Topology
}

// NewVM creates a virtual machine on m and assigns its VPs round-robin over
// the machine's physical processors.
func (m *Machine) NewVM(cfg VMConfig) (*VM, error) {
	if m.stopped.Load() {
		return nil, ErrMachineStopped
	}
	n := cfg.VPs
	if n <= 0 {
		n = len(m.pps)
	}
	vm := &VM{
		id:        vmIDs.Add(1),
		name:      cfg.Name,
		machine:   m,
		vpConfig:  cfg.VP,
		pmFactory: cfg.PolicyFactory,
		topology:  cfg.Topology,
	}
	if vm.name == "" {
		vm.name = fmt.Sprintf("vm-%d", vm.id)
	}
	if vm.topology == nil {
		vm.topology = Ring{}
	}
	if vm.pmFactory == nil {
		vm.pmFactory = m.defaultPM
	}
	vm.rootGroup = NewGroup(vm.name+"/root", nil)
	for i := 0; i < n; i++ {
		if _, err := vm.AddVP(); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.vms = append(m.vms, vm)
	m.mu.Unlock()
	return vm, nil
}

// ID returns the VM identifier.
func (vm *VM) ID() uint64 { return vm.id }

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.name }

// Machine returns the physical machine hosting the VM.
func (vm *VM) Machine() *Machine { return vm.machine }

// RootGroup returns the group that root threads of this VM belong to.
func (vm *VM) RootGroup() *Group { return vm.rootGroup }

// Topology returns the VP interconnection topology.
func (vm *VM) Topology() Topology { return vm.topology }

// VPs returns the VM's vp-vector.
func (vm *VM) VPs() []*VP {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]*VP, len(vm.vps))
	copy(out, vm.vps)
	return out
}

// VP returns the virtual processor at index i of the vp-vector (modulo its
// length, so round-robin placement code can pass a running counter).
func (vm *VM) VP(i int) *VP {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if len(vm.vps) == 0 {
		return nil
	}
	i %= len(vm.vps)
	if i < 0 {
		i += len(vm.vps)
	}
	return vm.vps[i]
}

// NVPs returns the number of virtual processors.
func (vm *VM) NVPs() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return len(vm.vps)
}

// AddVP allocates a new virtual processor on the VM (pm-allocate-vp's
// machinery), assigns it to the least-loaded physical processor, and
// returns it.
func (vm *VM) AddVP() (*VP, error) {
	if vm.machine.stopped.Load() {
		return nil, ErrMachineStopped
	}
	vm.mu.Lock()
	index := len(vm.vps)
	vm.mu.Unlock()
	vp := newVP(vm, index, nil, vm.vpConfig)
	vp.pm = vm.pmFactory(vp)
	vm.mu.Lock()
	vm.vps = append(vm.vps, vp)
	vm.mu.Unlock()
	vm.machine.assign(vp)
	return vp, nil
}

// Stats sums the VM's counters with those of its VPs.
func (vm *VM) Stats() VMStatsSnapshot {
	snap := VMStatsSnapshot{
		ThreadsCreated:    vm.stats.ThreadsCreated.Load(),
		ThreadsDetermined: vm.stats.ThreadsDetermined.Load(),
		Steals:            vm.stats.Steals.Load(),
	}
	for _, vp := range vm.VPs() {
		snap.VPs.Add(vp.stats.Snapshot())
	}
	return snap
}

// Spawn creates and schedules a root thread on the VM (round-robin over
// VPs) and returns it. It is the entry point for code running outside any
// STING thread; inside a thread, use Context.Fork.
func (vm *VM) Spawn(thunk Thunk, opts ...ThreadOption) *Thread {
	t := newThread(vm, nil, thunk, nil, obs.SpanContext{}, opts...)
	vp := vm.VP(int(t.id))
	scheduleThread(t, vp, EnqNew)
	return t
}

// SpawnOn is Spawn with explicit VP placement.
func (vm *VM) SpawnOn(vp *VP, thunk Thunk, opts ...ThreadOption) *Thread {
	t := newThread(vm, nil, thunk, nil, obs.SpanContext{}, opts...)
	scheduleThread(t, vp, EnqNew)
	return t
}

// Run spawns thunk as a root thread, waits (from ordinary Go code) for it
// to be determined, and returns its values. It is the synchronous bridge
// between the Go world and the substrate.
func (vm *VM) Run(thunk Thunk, opts ...ThreadOption) ([]Value, error) {
	t := vm.Spawn(thunk, opts...)
	return JoinThread(t)
}

// JoinThread blocks the calling goroutine (not a STING thread) until t is
// determined, then returns its values. The wait is handshake-based, not a
// spin: a barrier on a synthetic TCB-free waiter is registered and fired by
// wakeup-waiters.
func JoinThread(t *Thread) ([]Value, error) {
	done := make(chan struct{})
	joiner := &externalJoiner{done: done}
	if t.addExternalWaiter(joiner) {
		<-done
	}
	return t.TryValue()
}

// externalJoiner lets non-STING code (the Go main goroutine, tests,
// benchmarks) wait for thread completion without holding a VP.
type externalJoiner struct {
	done chan struct{}
	once sync.Once
}

func (j *externalJoiner) fire() { j.once.Do(func() { close(j.done) }) }

// addExternalWaiter registers j unless the thread is already determined.
func (t *Thread) addExternalWaiter(j *externalJoiner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.State() == Determined {
		return false
	}
	t.joiners = append(t.joiners, j)
	return true
}
