package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Machine is the physical machine abstraction: a fixed set of physical
// processors (PPs), each running a scheduler that multiplexes virtual
// processors — mirroring the paper's configuration of one lightweight
// OS thread per node. Physical processors handle operations across virtual
// machines; all user-level thread functionality lives in the VPs.
type Machine struct {
	mu  sync.Mutex
	pps []*PP
	vms []*VM

	vpPolicy VPPolicy

	stopped atomic.Bool
	done    sync.WaitGroup // one count per PP loop, however many carriers it used

	// spare is the pool of idle carriers: goroutines parked at their base
	// frame, stacks intact, until a PP loop needs carrying. Unbuffered, so a
	// send succeeds only when one is waiting; closed at Shutdown. spares
	// counts the waiting carriers, at most maxSpareCarriers.
	spare  chan *PP
	spares atomic.Int32
}

// MachineConfig parameterizes physical-machine construction.
type MachineConfig struct {
	// Processors is the number of physical processors (default GOMAXPROCS).
	Processors int
	// VPPolicy schedules VPs on PPs; nil installs round-robin.
	VPPolicy VPPolicy
}

// sliceBudget is how many thread dispatches a VP may perform per visit
// from its PP before the PP moves to its next VP.
const sliceBudget = 32

// idleWait bounds how long an idle PP sleeps before re-scanning.
const idleWait = 100 * time.Microsecond

// NewMachine boots a physical machine: its PP scheduler goroutines start
// immediately and run until Shutdown.
func NewMachine(cfg MachineConfig) *Machine {
	n := cfg.Processors
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	m := &Machine{vpPolicy: cfg.VPPolicy, spare: make(chan *PP)}
	if m.vpPolicy == nil {
		m.vpPolicy = &RoundRobinVPs{}
	}
	for i := 0; i < n; i++ {
		pp := newPP(m, i)
		m.pps = append(m.pps, pp)
		m.done.Add(1)
		go m.carrier(pp)
	}
	return m
}

// carrier is the base frame of every goroutine that runs a PP loop. When a
// thread it was evaluating inline parks, the thread keeps the goroutine and
// the loop moves to another carrier; once that thread finishes, the stale
// loop frames unwind back here and the goroutine joins the spare pool.
func (m *Machine) carrier(pp *PP) {
	for ok := true; ok; {
		pp.loop()
		if m.spares.Add(1) > maxSpareCarriers {
			m.spares.Add(-1)
			return
		}
		pp, ok = <-m.spare
		m.spares.Add(-1)
	}
}

// maxSpareCarriers bounds the idle pool, as tcbCacheLimit bounds a VP's
// cache: a burst of parked threads leaves at most this many idle goroutines
// behind once they finish.
const maxSpareCarriers = 64

// tcbCacheLimit bounds each VP's TCB recycle cache.
const tcbCacheLimit = 64

// carry runs pp's loop on a spare carrier, starting one if none is idle.
func (m *Machine) carry(pp *PP) {
	select {
	case m.spare <- pp:
	default:
		go m.carrier(pp)
	}
}

// Processors returns the machine's physical processors.
func (m *Machine) Processors() []*PP {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*PP, len(m.pps))
	copy(out, m.pps)
	return out
}

// VMs returns the virtual machines executing on this machine.
func (m *Machine) VMs() []*VM {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*VM, len(m.vms))
	copy(out, m.vms)
	return out
}

// Stopped reports whether the machine has been shut down.
func (m *Machine) Stopped() bool { return m.stopped.Load() }

// assign places a VP on the least-loaded physical processor.
func (m *Machine) assign(vp *VP) {
	m.mu.Lock()
	var best *PP
	for _, pp := range m.pps {
		if best == nil || pp.nvps() < best.nvps() {
			best = pp
		}
	}
	m.mu.Unlock()
	if best != nil {
		best.attach(vp)
	}
}

// MoveVP migrates a VP onto a specific physical processor, the
// customizable VP-on-PP mapping of §3.2.
func (m *Machine) MoveVP(vp *VP, target *PP) {
	if old := vp.pp.Load(); old != nil {
		old.detach(vp)
	}
	target.attach(vp)
}

// Shutdown stops every physical processor and releases the spare carriers.
// It does not wait for in-flight threads: callers should join the threads
// they care about first (VM.Run does).
func (m *Machine) Shutdown() {
	if m.stopped.Swap(true) {
		return
	}
	for _, pp := range m.Processors() {
		pp.kickNow()
	}
	m.done.Wait()
	// Every loop has stopped, so no thread runs and none can park and ask
	// for a carrier.
	close(m.spare)
	for _, vm := range m.VMs() {
		for _, vp := range vm.vpVector() {
			vp.stopped.Store(true)
		}
	}
}

// VPPolicy schedules virtual processors on a physical processor, just as a
// PolicyManager schedules threads on a VP ("associated with each physical
// processor is a policy manager that dictates the scheduling of the virtual
// processors which execute on it").
type VPPolicy interface {
	// Next returns the next VP pp should host, or nil when pp has none.
	Next(pp *PP) *VP
	// Attached and Detached notify the policy of VP assignment changes.
	Attached(pp *PP, vp *VP)
	Detached(pp *PP, vp *VP)
}

// RoundRobinVPs is the default VP-on-PP policy: each PP cycles through its
// attached VPs in order.
type RoundRobinVPs struct{}

// Next implements VPPolicy.
func (*RoundRobinVPs) Next(pp *PP) *VP { return pp.nextRR() }

// Attached implements VPPolicy.
func (*RoundRobinVPs) Attached(*PP, *VP) {}

// Detached implements VPPolicy.
func (*RoundRobinVPs) Detached(*PP, *VP) {}

// PP is a physical processor: a scheduler loop that hosts VPs one slice at
// a time, carried by one goroutine at a time (see Machine.carrier).
type PP struct {
	id      int
	machine *Machine

	mu   sync.Mutex
	vps  []*VP
	next int

	kick chan struct{}
	// idle bounds each idle sleep of loop. Only one carrier runs the loop
	// at a time, so the PP owns the timer, not a goroutine. Since Go 1.23
	// (go.mod's floor) a timer's channel delivers nothing from before a
	// Stop or Reset, so a fire left over from a sleep the kick cut short
	// cannot end the next sleep early.
	idle *time.Timer

	slices atomic.Uint64
	idles  atomic.Uint64
}

func newPP(m *Machine, id int) *PP {
	idle := time.NewTimer(idleWait)
	idle.Stop()
	return &PP{
		id:      id,
		machine: m,
		kick:    make(chan struct{}, 1),
		idle:    idle,
	}
}

// ID returns the processor number.
func (pp *PP) ID() int { return pp.id }

// VPs returns the VPs currently attached to this processor.
func (pp *PP) VPs() []*VP {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	out := make([]*VP, len(pp.vps))
	copy(out, pp.vps)
	return out
}

// Slices returns how many VP slices this processor has executed.
func (pp *PP) Slices() uint64 { return pp.slices.Load() }

// Idles returns how many times the processor went idle.
func (pp *PP) Idles() uint64 { return pp.idles.Load() }

func (pp *PP) nvps() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return len(pp.vps)
}

func (pp *PP) attach(vp *VP) {
	pp.mu.Lock()
	pp.vps = append(pp.vps, vp)
	pp.mu.Unlock()
	vp.pp.Store(pp)
	pp.machine.vpPolicy.Attached(pp, vp)
	pp.kickNow()
}

func (pp *PP) detach(vp *VP) {
	pp.mu.Lock()
	for i, v := range pp.vps {
		if v == vp {
			pp.vps = append(pp.vps[:i], pp.vps[i+1:]...)
			break
		}
	}
	pp.mu.Unlock()
	pp.machine.vpPolicy.Detached(pp, vp)
}

func (pp *PP) nextRR() *VP {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if len(pp.vps) == 0 {
		return nil
	}
	pp.next %= len(pp.vps)
	vp := pp.vps[pp.next]
	pp.next++
	return vp
}

// kickNow wakes the processor if it is idling.
func (pp *PP) kickNow() {
	select {
	case pp.kick <- struct{}{}:
	default:
	}
}

// loop is the processor's scheduler: it visits VPs according to the
// machine's VP policy, granting each a slice of dispatches, and sleeps
// briefly when every VP is idle. It returns early, without counting the
// loop done, when a thread parked and the loop moved to another carrier.
func (pp *PP) loop() {
	m := pp.machine
	for !m.stopped.Load() {
		progress := false
		n := pp.nvps()
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			vp := m.vpPolicy.Next(pp)
			if vp == nil {
				break
			}
			pp.slices.Add(1)
			did, carried := vp.runSlice(pp)
			if !carried {
				return
			}
			progress = progress || did
		}
		if !progress {
			pp.idles.Add(1)
			pp.idle.Reset(idleWait)
			select {
			case <-pp.kick:
				pp.idle.Stop()
			case <-pp.idle.C:
			}
		}
	}
	m.done.Done()
}
