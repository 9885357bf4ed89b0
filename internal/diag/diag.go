// Package diag is the substrate's always-on runtime diagnoser: the
// subsystem an operator reaches for when a STING program hangs, crawls,
// or thrashes — without restarting it under a debugger.
//
// Three cooperating pieces:
//
//   - A low-frequency stall sampler (sampler.go) walks every parked
//     waiter — tuple-space blocked tables, and remote server parks when
//     wired — and the threads that own them, builds a wait-for graph
//     keyed by (space, arity, first-field class), and reports both
//     cycles (true deadlocks) and age-ranked stalls older than a
//     configurable SLO, with span context attached so a stall links
//     into the distributed traces of internal/obs.
//   - A hot-key contention profiler (sketch.go, this file) keeps
//     per-space space-saving top-K sketches over put/get/take keys,
//     wake misses, baton handoffs, and STM conflict keys, with
//     per-shard attribution pushed in by internal/cluster.
//   - A flight recorder (recorder.go) keeps a fixed-size ring of
//     diagnostic events (stall onsets, conflict bursts, steal storms,
//     probe failures, drain flips) that stingd dumps on SIGQUIT, on a
//     watchdog-detected scheduler stall, and on /debug/diag?dump=1.
//
// Everything is dependency-free and pull-based; when no Diagnoser is
// started the only cost to the runtime is one atomic nil check per
// instrumented operation (see tspace.SetDiagHook).
package diag

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tspace"
)

// WaiterSource yields blocked-table snapshots; *tspace.Registry
// implements it, and tests substitute fixtures.
type WaiterSource interface {
	WaiterInfos() []tspace.WaiterInfo
}

// ParkInfo describes one remote request parked server-side on a
// blocking tuple operation (internal/remote's serveBlocking).
type ParkInfo struct {
	Conn  string    // remote address of the owning connection
	Op    string    // wire op name ("GET", "RD", ...)
	Space string    // target space name
	Since time.Time // when the request parked
}

// Config shapes a Diagnoser. Zero values pick the documented defaults.
type Config struct {
	// Node tags reports and flight-recorder dumps (multi-node merges).
	Node string
	// SamplePeriod is the stall-sampler interval (default 1s).
	SamplePeriod time.Duration
	// StallSLO is the parked age past which a waiter is reported as
	// stalled (default 30s).
	StallSLO time.Duration
	// TopK is how many hot keys each per-space sketch reports
	// (default 10); the sketch keeps 4×TopK counters.
	TopK int
	// RecorderCap bounds the flight-recorder ring (default 4096 events).
	RecorderCap int
	// Waiters lists the registries whose blocked tables the sampler
	// walks. Usually one: the process's tuple-space registry.
	Waiters []WaiterSource
	// Parked, when set, contributes remote server parks (stingd wires
	// it to remote.Server.Parked, adapted).
	Parked func() []ParkInfo
	// VM, when set, lets the sampler watch scheduler steal counters for
	// steal storms.
	VM *core.VM
	// ConflictBurst is the per-sample conflict delta that triggers a
	// conflict-burst recorder event (default 64).
	ConflictBurst uint64
	// StealStorm is the per-sample failed-steal delta that triggers a
	// steal-storm recorder event (default 4096).
	StealStorm uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.SamplePeriod <= 0 {
		out.SamplePeriod = time.Second
	}
	if out.StallSLO <= 0 {
		out.StallSLO = 30 * time.Second
	}
	if out.TopK <= 0 {
		out.TopK = 10
	}
	if out.RecorderCap <= 0 {
		out.RecorderCap = 4096
	}
	if out.ConflictBurst == 0 {
		out.ConflictBurst = 64
	}
	if out.StealStorm == 0 {
		out.StealStorm = 4096
	}
	return out
}

// Diagnoser owns the profiler, the sampler, and the flight recorder.
type Diagnoser struct {
	cfg  Config
	prof *profiler
	rec  *obs.SyncRing[Event] // the flight recorder

	mu        sync.Mutex // sampler state: one sample at a time
	stalls    map[stallID]time.Time
	deadlocks map[string]time.Time
	lastConf  uint64
	lastFail  uint64
	report    atomic.Pointer[Report]

	samples     atomic.Uint64
	stallOnsets atomic.Uint64
	stalledNow  atomic.Int64
	deadlocked  atomic.Uint64
	watchdog    atomic.Uint64
	sampleLat   *obs.Histogram

	stop chan struct{}
	done chan struct{}
}

// stallID identifies one blocking attempt across samples: the space
// name plus the wait-table registration sequence number.
type stallID struct {
	space string
	seq   uint64
}

// New builds a Diagnoser; Start activates it.
func New(cfg Config) *Diagnoser {
	c := cfg.withDefaults()
	return &Diagnoser{
		cfg:       c,
		prof:      newProfiler(c.TopK),
		rec:       obs.NewSyncRing[Event](c.RecorderCap),
		stalls:    make(map[stallID]time.Time),
		deadlocks: make(map[string]time.Time),
		sampleLat: obs.NewHistogram(),
	}
}

// Start installs the tuple-space hook, makes this Diagnoser the
// process default (the target of RecordEvent/ShardEvent), and launches
// the sampler loop. Stop undoes all three.
func (d *Diagnoser) Start() {
	tspace.SetDiagHook(d.prof)
	defaultDiag.Store(d)
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.loop()
}

// Stop halts the sampler and removes the hooks. Safe to call once
// after Start.
func (d *Diagnoser) Stop() {
	close(d.stop)
	<-d.done
	tspace.SetDiagHook(nil)
	defaultDiag.CompareAndSwap(d, nil)
}

// Record appends a diagnostic event to the flight recorder.
func (d *Diagnoser) Record(kind, space, key, detail string, count uint64) {
	d.rec.Record(Event{T: time.Now(), Kind: kind, Space: space, Key: key, Detail: detail, Count: count})
}

// WatchdogStall notes a watchdog-detected scheduler stall: counter,
// recorder event. The caller (stingd's watchdog) decides whether to
// dump the ring afterwards.
func (d *Diagnoser) WatchdogStall(detail string) {
	d.watchdog.Add(1)
	d.Record("watchdog-stall", "", "", detail, d.watchdog.Load())
}

func (d *Diagnoser) loop() {
	defer close(d.done)
	t := time.NewTicker(d.cfg.SamplePeriod)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.Sample()
		}
	}
}

// defaultDiag is the process-wide Diagnoser that package-level
// reporters (cluster probe failures, shard rollups) feed. Nil until a
// Diagnoser starts; every reporter is then a single atomic load plus a
// nil check.
var defaultDiag atomic.Pointer[Diagnoser]

// Default returns the process-wide Diagnoser, or nil.
func Default() *Diagnoser { return defaultDiag.Load() }

// RecordEvent appends an event to the default Diagnoser's flight
// recorder; a no-op when diagnosis is off.
func RecordEvent(kind, space, key, detail string, count uint64) {
	if d := defaultDiag.Load(); d != nil {
		d.Record(kind, space, key, detail, count)
	}
}

// ShardEvent attributes one routed tuple operation to a shard; the
// cluster client calls it so /debug/diag can answer "which shard is
// hot". A no-op when diagnosis is off.
func ShardEvent(shard, space string, op tspace.DiagOp) {
	if d := defaultDiag.Load(); d != nil {
		d.prof.shardEvent(shard, space, op)
	}
}
