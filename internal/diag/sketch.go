package diag

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tspace"
)

type atomic64 = atomic.Uint64

func nowNanos() int64 { return time.Now().UnixNano() }

// The hot-key profiler. Keys are tuple classes — (arity, first-field
// hash) — exactly the classes the wait table wakes on, so a key that is
// hot here is the key waiters contend for there. Per space it keeps one
// space-saving sketch per operation kind (put/take/conflict), wake-miss
// and handoff counters, and a bounded recent-producer table the
// deadlock detector consults. Per shard it keeps plain counters pushed
// in by the cluster client.

// classKey identifies a tuple class. keyed is false for tuples whose
// first field is unkeyable (threads, aggregates, empty tuples); such
// classes carry sig 0 and only ever feed wildcard waiters.
type classKey struct {
	arity int
	sig   uint64
	keyed bool
}

// sketchNode is one space-saving counter. err bounds the
// overestimation: true count ∈ [count-err, count].
type sketchNode struct {
	key   classKey
	count uint64
	err   uint64
	first core.Value // exemplar first field, rendered lazily at report time
}

// sketch is the space-saving top-K structure: at most cap counters;
// an unseen key evicts the minimum counter and inherits its count as
// error. Single-writer under the owning spaceProfile's mutex.
type sketch struct {
	cap   int
	nodes map[classKey]*sketchNode
}

func newSketch(topK int) *sketch {
	return &sketch{cap: 4 * topK, nodes: make(map[classKey]*sketchNode, 4*topK)}
}

func (s *sketch) observe(k classKey, first core.Value) {
	if n, ok := s.nodes[k]; ok {
		n.count++
		return
	}
	if len(s.nodes) < s.cap {
		s.nodes[k] = &sketchNode{key: k, count: 1, first: first}
		return
	}
	var min *sketchNode
	for _, n := range s.nodes {
		if min == nil || n.count < min.count {
			min = n
		}
	}
	delete(s.nodes, min.key)
	s.nodes[k] = &sketchNode{key: k, count: min.count + 1, err: min.count, first: first}
}

// HotKey is one reported sketch entry.
type HotKey struct {
	Key   string `json:"key"`
	Arity int    `json:"arity"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// top renders the K heaviest counters, exemplar labels included.
func (s *sketch) top(k int) []HotKey {
	nodes := make([]*sketchNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].count != nodes[j].count {
			return nodes[i].count > nodes[j].count
		}
		return nodes[i].key.sig < nodes[j].key.sig
	})
	if len(nodes) > k {
		nodes = nodes[:k]
	}
	out := make([]HotKey, 0, len(nodes))
	for _, n := range nodes {
		hk := HotKey{Arity: n.key.arity, Count: n.count, Err: n.err}
		if n.key.keyed && n.first != nil {
			hk.Key = fmt.Sprintf("%v", n.first)
		} else {
			hk.Key = "*"
		}
		out = append(out, hk)
	}
	return out
}

// producerRing remembers the last few threads that deposited into a
// class — the "who would have fed this waiter" half of the wait-for
// graph. Four slots is enough to survive interleaving: a deadlocked
// pair revisits its classes every iteration, so the guilty producer is
// always among the most recent few.
type producerRing struct {
	ids  [4]uint64
	last int64 // unix nanos of the newest record, for staleness eviction
	n    int
}

func (r *producerRing) add(id uint64, now int64) {
	r.ids[r.n%len(r.ids)] = id
	r.n++
	r.last = now
}

// maxProducerClasses bounds each stripe's recent-producer table. When
// full, classes whose newest deposit is older than producerTTL are
// swept; if every class is fresh the new one is dropped — a bounded
// loss the deadlock detector tolerates (a live deadlock keeps
// re-recording its classes).
const maxProducerClasses = 128

const producerTTL = int64(10e9) // 10s in nanos

// profStripes spreads one space's event stream over independent locks,
// keyed by recording thread. Without striping every producer and
// consumer of a hot key serializes on a single mutex and the "enabled"
// profiler costs tens of percent instead of a few; with it, threads
// mostly hit distinct stripes and only the sampler pays the merge.
const profStripes = 8

// profStripe is one thread-sliced shard of a space's sketches and
// producer history. The sampler merges stripes at report time.
type profStripe struct {
	mu        sync.Mutex
	puts      *sketch
	takes     *sketch
	conflicts *sketch
	producers map[classKey]*producerRing
}

// spaceProfile aggregates one space's events across its stripes.
type spaceProfile struct {
	stripes    [profStripes]profStripe
	wakeMisses atomic64
	handoffs   atomic64
}

// merged sums one sketch family across stripes and renders its top k.
// Counts add exactly (every event lands in exactly one stripe); error
// bounds add conservatively.
func (sp *spaceProfile) merged(sel func(*profStripe) *sketch, k int) []HotKey {
	agg := make(map[classKey]*sketchNode)
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		for key, n := range sel(st).nodes {
			if a, ok := agg[key]; ok {
				a.count += n.count
				a.err += n.err
				if a.first == nil {
					a.first = n.first
				}
			} else {
				cp := *n
				agg[key] = &cp
			}
		}
		st.mu.Unlock()
	}
	return (&sketch{nodes: agg}).top(k)
}

// shardCounts aggregates routed-operation counts for one shard.
type shardCounts struct {
	mu                 sync.Mutex
	puts, takes, confs uint64
	spaces             map[string]uint64 // per-space routed-op counts
}

// profiler implements tspace.DiagHook. All methods run on tuple-op hot
// paths: lookups are lock-free (sync.Map), updates take only the one
// space's mutex.
type profiler struct {
	spaces sync.Map // string → *spaceProfile
	shards sync.Map // string → *shardCounts

	puts, takes, conflicts atomic64
	wakeMisses, handoffs   atomic64
}

func (p *profiler) space(name string) *spaceProfile {
	if sp, ok := p.spaces.Load(name); ok {
		return sp.(*spaceProfile)
	}
	sp := &spaceProfile{}
	for i := range sp.stripes {
		sp.stripes[i].puts = newSketch(topK)
		sp.stripes[i].takes = newSketch(topK)
		sp.stripes[i].conflicts = newSketch(topK)
		sp.stripes[i].producers = make(map[classKey]*producerRing)
	}
	actual, _ := p.spaces.LoadOrStore(name, sp)
	return actual.(*spaceProfile)
}

// KeyEvent implements tspace.DiagHook.
func (p *profiler) KeyEvent(space string, op tspace.DiagOp, arity int, sig uint64, keyed bool, first core.Value, threadID uint64) {
	k := classKey{arity: arity, sig: sig, keyed: keyed}
	if !keyed {
		k.sig = 0
	}
	sp := p.space(space)
	st := &sp.stripes[threadID%profStripes]
	st.mu.Lock()
	switch op {
	case tspace.DiagPut:
		st.puts.observe(k, first)
		if threadID != 0 {
			st.recordProducer(k, threadID)
		}
	case tspace.DiagTake:
		st.takes.observe(k, first)
	case tspace.DiagConflict:
		st.conflicts.observe(k, first)
	}
	st.mu.Unlock()
	switch op {
	case tspace.DiagPut:
		p.puts.Add(1)
	case tspace.DiagTake:
		p.takes.Add(1)
	case tspace.DiagConflict:
		p.conflicts.Add(1)
	}
}

func (st *profStripe) recordProducer(k classKey, threadID uint64) {
	now := nowNanos()
	r := st.producers[k]
	if r == nil {
		if len(st.producers) >= maxProducerClasses {
			for ck, cr := range st.producers {
				if now-cr.last > producerTTL {
					delete(st.producers, ck)
				}
			}
			if len(st.producers) >= maxProducerClasses {
				return
			}
		}
		r = &producerRing{}
		st.producers[k] = r
	}
	r.add(threadID, now)
}

// WakeMiss implements tspace.DiagHook.
func (p *profiler) WakeMiss(space string) {
	p.space(space).wakeMisses.Add(1)
	p.wakeMisses.Add(1)
}

// Handoff implements tspace.DiagHook.
func (p *profiler) Handoff(space string) {
	p.space(space).handoffs.Add(1)
	p.handoffs.Add(1)
}

func (p *profiler) shardEvent(shard, space string, op tspace.DiagOp) {
	var sc *shardCounts
	if v, ok := p.shards.Load(shard); ok {
		sc = v.(*shardCounts)
	} else {
		v, _ := p.shards.LoadOrStore(shard, &shardCounts{spaces: make(map[string]uint64)})
		sc = v.(*shardCounts)
	}
	sc.mu.Lock()
	switch op {
	case tspace.DiagPut:
		sc.puts++
	case tspace.DiagTake:
		sc.takes++
	case tspace.DiagConflict:
		sc.confs++
	}
	sc.spaces[space]++
	sc.mu.Unlock()
}

// recentProducers returns the distinct threads that recently deposited
// into the waiter's class. A wild waiter matches any class of its
// arity; a keyed waiter matches its exact class.
func (p *profiler) recentProducers(space string, arity int, sig uint64, wild bool) []uint64 {
	v, ok := p.spaces.Load(space)
	if !ok {
		return nil
	}
	sp := v.(*spaceProfile)
	seen := make(map[uint64]bool, 4)
	var out []uint64
	collect := func(r *producerRing) {
		n := r.n
		if n > len(r.ids) {
			n = len(r.ids)
		}
		for i := 0; i < n; i++ {
			id := r.ids[i]
			if id != 0 && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		if wild {
			for ck, r := range st.producers {
				if ck.arity == arity {
					collect(r)
				}
			}
		} else if r, ok := st.producers[classKey{arity: arity, sig: sig, keyed: true}]; ok {
			collect(r)
		}
		st.mu.Unlock()
	}
	return out
}

// SpaceReport is one space's profiler view in the diagnosis report.
type SpaceReport struct {
	Puts       []HotKey `json:"puts,omitempty"`
	Takes      []HotKey `json:"takes,omitempty"`
	Conflicts  []HotKey `json:"conflicts,omitempty"`
	WakeMisses uint64   `json:"wake_misses,omitempty"`
	Handoffs   uint64   `json:"handoffs,omitempty"`
}

// ShardReport is one shard's routed-operation rollup.
type ShardReport struct {
	Puts      uint64            `json:"puts,omitempty"`
	Takes     uint64            `json:"takes,omitempty"`
	Conflicts uint64            `json:"conflicts,omitempty"`
	Spaces    map[string]uint64 `json:"spaces,omitempty"`
}

func (p *profiler) spaceReports() map[string]*SpaceReport {
	out := make(map[string]*SpaceReport)
	p.spaces.Range(func(k, v any) bool {
		sp := v.(*spaceProfile)
		r := &SpaceReport{
			Puts:       sp.merged(func(st *profStripe) *sketch { return st.puts }, topK),
			Takes:      sp.merged(func(st *profStripe) *sketch { return st.takes }, topK),
			Conflicts:  sp.merged(func(st *profStripe) *sketch { return st.conflicts }, topK),
			WakeMisses: sp.wakeMisses.Load(),
			Handoffs:   sp.handoffs.Load(),
		}
		name := k.(string)
		if name == "" {
			name = "(anonymous)"
		}
		out[name] = r
		return true
	})
	return out
}

func (p *profiler) shardReports() map[string]*ShardReport {
	out := make(map[string]*ShardReport)
	p.shards.Range(func(k, v any) bool {
		sc := v.(*shardCounts)
		sc.mu.Lock()
		r := &ShardReport{Puts: sc.puts, Takes: sc.takes, Conflicts: sc.confs,
			Spaces: make(map[string]uint64, len(sc.spaces))}
		for s, n := range sc.spaces {
			r.Spaces[s] = n
		}
		sc.mu.Unlock()
		out[k.(string)] = r
		return true
	})
	return out
}
