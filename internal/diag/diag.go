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
	"repro/internal/remote"
	"repro/internal/tspace"
)

// WaiterSource yields blocked-table snapshots; *tspace.Registry
// implements it, and tests substitute fixtures.
type WaiterSource interface {
	WaiterInfos() []tspace.WaiterInfo
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
	// Waiters lists the registries whose blocked tables the sampler
	// walks. Usually one: the process's tuple-space registry.
	Waiters []WaiterSource
	// Parked, when set, contributes remote server parks (stingd passes
	// remote.Server.Parked).
	Parked func() []remote.ParkedOp
	// VM, when set, lets the sampler watch scheduler steal counters for
	// steal storms.
	VM *core.VM
}

const (
	// topK is how many hot keys each per-space sketch reports; the sketch
	// keeps 4×topK counters.
	topK = 10
	// recorderCap bounds the flight-recorder ring, in events.
	recorderCap = 4096
	// conflictBurst is the per-sample conflict delta that triggers a
	// conflict-burst recorder event.
	conflictBurst = 64
	// stealStorm is the per-sample failed-steal delta that triggers a
	// steal-storm recorder event.
	stealStorm = 4096
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.SamplePeriod <= 0 {
		out.SamplePeriod = time.Second
	}
	if out.StallSLO <= 0 {
		out.StallSLO = 30 * time.Second
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
		prof:      &profiler{},
		rec:       obs.NewSyncRing[Event](recorderCap),
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
