package diag

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tspace"
)

// The stall sampler. Each pass snapshots every blocked table, ages the
// waiters against the SLO, and runs deadlock detection over a wait-for
// graph built from producer history: a blocked thread T is presumed to
// wait for thread U when U recently deposited into the class T is
// blocked on AND U is itself currently blocked. A producer that is
// still running breaks the edge — which is exactly why a legitimate
// producer/consumer pipeline never registers as a deadlock: somewhere
// in the chain a thread is runnable, or the head waits on a class
// nobody in the group produces.

// StallReport describes one waiter past the SLO.
type StallReport struct {
	Space      string `json:"space"`
	Key        string `json:"key,omitempty"`
	Arity      int    `json:"arity"`
	Wild       bool   `json:"wild,omitempty"`
	AgeMs      int64  `json:"age_ms"`
	Thread     uint64 `json:"thread,omitempty"`
	ThreadName string `json:"thread_name,omitempty"`
	State      string `json:"state,omitempty"`
	Trace      string `json:"trace,omitempty"`
	Span       string `json:"span,omitempty"`
}

// ThreadRef names one participant in a reported deadlock cycle.
type ThreadRef struct {
	ID    uint64 `json:"id"`
	Name  string `json:"name,omitempty"`
	Space string `json:"space"`
	Key   string `json:"key,omitempty"`
}

// ParkReport describes one remote server park.
type ParkReport struct {
	Conn  string `json:"conn"`
	Op    string `json:"op"`
	Space string `json:"space"`
	AgeMs int64  `json:"age_ms"`
}

// Report is the full diagnosis snapshot served at /debug/diag.
type Report struct {
	Node        string                  `json:"node,omitempty"`
	SampledAt   time.Time               `json:"sampled_at"`
	Waiters     int                     `json:"waiters"`
	Stalls      []StallReport           `json:"stalls"`
	Deadlocks   [][]ThreadRef           `json:"deadlocks"`
	RemoteParks []ParkReport            `json:"remote_parks,omitempty"`
	Spaces      map[string]*SpaceReport `json:"spaces,omitempty"`
	Shards      map[string]*ShardReport `json:"shards,omitempty"`
	Recorder    []Event                 `json:"recorder_tail,omitempty"`
}

// Sample runs one sampler pass now and returns the fresh report. The
// loop calls it on every tick; the HTTP handler calls it on demand so
// /debug/diag is never staler than the request.
func (d *Diagnoser) Sample() *Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	t0 := time.Now()

	var waiters []tspace.WaiterInfo
	for _, src := range d.cfg.Waiters {
		waiters = append(waiters, src.WaiterInfos()...)
	}

	rep := &Report{
		Node:      d.cfg.Node,
		SampledAt: t0,
		Waiters:   len(waiters),
		Stalls:    []StallReport{},
		Deadlocks: [][]ThreadRef{},
	}

	d.detectStalls(rep, waiters, t0)
	d.detectDeadlocks(rep, waiters)
	d.detectBursts(t0)

	if d.cfg.Parked != nil {
		for _, p := range d.cfg.Parked() {
			rep.RemoteParks = append(rep.RemoteParks, ParkReport{
				Conn: p.Conn, Op: p.Op, Space: p.Space,
				AgeMs: t0.Sub(p.Since).Milliseconds(),
			})
		}
	}
	rep.Spaces = d.prof.spaceReports()
	rep.Shards = d.prof.shardReports()
	rep.Recorder = d.rec.Tail(32)

	d.samples.Add(1)
	d.sampleLat.ObserveSince(t0)
	d.report.Store(rep)
	return rep
}

// LastReport returns the most recent sample, or nil before the first.
func (d *Diagnoser) LastReport() *Report { return d.report.Load() }

// detectStalls ages waiters against the SLO, tracking onsets across
// samples by (space, registration-seq) identity so each stall counts
// once however long it lasts.
func (d *Diagnoser) detectStalls(rep *Report, waiters []tspace.WaiterInfo, now time.Time) {
	live := make(map[stallID]bool, len(d.stalls))
	for _, w := range waiters {
		age := now.Sub(w.Since)
		if age < d.cfg.StallSLO {
			continue
		}
		id := stallID{space: w.Space, seq: w.Seq}
		live[id] = true
		sr := StallReport{
			Space: w.Space, Key: w.Key, Arity: w.Arity, Wild: w.Wild,
			AgeMs: age.Milliseconds(),
		}
		if w.Thread != nil {
			ti := core.SnapshotThread(w.Thread)
			sr.Thread = ti.ID
			sr.ThreadName = ti.Name
			sr.State = ti.State.String() + "/" + ti.Exec.String()
			sr.Trace = ti.Trace
			sr.Span = ti.Span
		}
		rep.Stalls = append(rep.Stalls, sr)
		if _, seen := d.stalls[id]; !seen {
			d.stalls[id] = now
			d.stallOnsets.Add(1)
			d.rec.Record(Event{T: now, Kind: "stall", Space: w.Space, Key: w.Key,
				Detail: "waiter past SLO; thread " + strconv.FormatUint(sr.Thread, 10),
				Count:  uint64(age.Milliseconds())})
		}
	}
	for id := range d.stalls {
		if !live[id] {
			delete(d.stalls, id)
			d.rec.Record(Event{T: now, Kind: "stall-clear", Space: id.space,
				Detail: "waiter " + strconv.FormatUint(id.seq, 10) + " unparked"})
		}
	}
	sort.Slice(rep.Stalls, func(i, j int) bool { return rep.Stalls[i].AgeMs > rep.Stalls[j].AgeMs })
	d.stalledNow.Store(int64(len(rep.Stalls)))
}

// detectDeadlocks builds the wait-for graph and reports its cycles.
// Deadlocks are deduplicated by cycle signature so a persistent cycle
// counts once, not once per sample.
func (d *Diagnoser) detectDeadlocks(rep *Report, waiters []tspace.WaiterInfo) {
	// One representative waiter per blocked thread. A thread blocks on
	// one template at a time; duplicates (same thread in two tables)
	// cannot happen in the blocking loop.
	blocked := make(map[uint64]tspace.WaiterInfo, len(waiters))
	for _, w := range waiters {
		if w.Thread != nil {
			blocked[w.Thread.ID()] = w
		}
	}
	if len(blocked) < 2 {
		d.clearGoneDeadlocks(nil)
		return
	}
	edges := make(map[uint64][]uint64, len(blocked))
	for tid, w := range blocked {
		for _, p := range d.prof.recentProducers(w.Space, w.Arity, w.Sig, w.Wild) {
			if p != tid {
				if _, isBlocked := blocked[p]; isBlocked {
					edges[tid] = append(edges[tid], p)
				}
			}
		}
	}

	// Iterative DFS with tri-color marking; a back edge closes a cycle.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[uint64]int, len(blocked))
	var stack []uint64
	onStack := make(map[uint64]int) // thread → index in stack
	seen := make(map[string]bool)

	var cycles [][]uint64
	var dfs func(u uint64)
	dfs = func(u uint64) {
		color[u] = grey
		onStack[u] = len(stack)
		stack = append(stack, u)
		for _, v := range edges[u] {
			switch color[v] {
			case white:
				dfs(v)
			case grey:
				cyc := append([]uint64(nil), stack[onStack[v]:]...)
				sig := cycleSig(cyc)
				if !seen[sig] {
					seen[sig] = true
					cycles = append(cycles, cyc)
				}
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, u)
		color[u] = black
	}
	roots := make([]uint64, 0, len(blocked))
	for tid := range blocked {
		roots = append(roots, tid)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, tid := range roots {
		if color[tid] == white {
			dfs(tid)
		}
	}

	liveSigs := make(map[string]bool, len(cycles))
	now := time.Now()
	for _, cyc := range cycles {
		refs := make([]ThreadRef, 0, len(cyc))
		for _, tid := range cyc {
			w := blocked[tid]
			name := ""
			if w.Thread != nil {
				name = w.Thread.Name()
			}
			refs = append(refs, ThreadRef{ID: tid, Name: name, Space: w.Space, Key: w.Key})
		}
		rep.Deadlocks = append(rep.Deadlocks, refs)
		sig := cycleSig(cyc)
		liveSigs[sig] = true
		if _, known := d.deadlocks[sig]; !known {
			d.deadlocks[sig] = now
			d.deadlocked.Add(1)
			d.rec.Record(Event{T: now, Kind: "deadlock", Space: refs[0].Space, Key: refs[0].Key,
				Detail: "cycle " + sig, Count: uint64(len(cyc))})
		}
	}
	d.clearGoneDeadlocks(liveSigs)
}

func (d *Diagnoser) clearGoneDeadlocks(live map[string]bool) {
	for sig := range d.deadlocks {
		if !live[sig] {
			delete(d.deadlocks, sig)
		}
	}
}

// cycleSig canonicalizes a cycle as its sorted member IDs, so the same
// cycle found from different entry points compares equal.
func cycleSig(cyc []uint64) string {
	ids := append([]uint64(nil), cyc...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte('>')
		}
		b.WriteString(strconv.FormatUint(id, 10))
	}
	return b.String()
}

// detectBursts compares cumulative conflict and failed-steal counters
// against the previous sample and records burst events past the
// conflictBurst and stealStorm thresholds.
func (d *Diagnoser) detectBursts(now time.Time) {
	conf := d.prof.conflicts.Load()
	if delta := conf - d.lastConf; delta >= conflictBurst {
		d.rec.Record(Event{T: now, Kind: "conflict-burst",
			Detail: "commit conflicts in one sample period", Count: delta})
	}
	d.lastConf = conf

	if d.cfg.VM != nil {
		var failed uint64
		for _, vp := range d.cfg.VM.VPs() {
			failed += vp.Stats().Snapshot().FailedSteals
		}
		if delta := failed - d.lastFail; delta >= stealStorm && d.lastFail != 0 {
			d.rec.Record(Event{T: now, Kind: "steal-storm",
				Detail: "failed steal attempts in one sample period", Count: delta})
		}
		d.lastFail = failed
	}
}
