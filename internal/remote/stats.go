package remote

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats counts server-side fabric events, mirroring the core.VPStats
// snapshot idiom: cumulative atomic counters, a plain-value Snapshot, and
// a render helper for the daemon's -dump-stats. OpLatency carries one
// lock-free histogram per wire op, recorded in the server dispatch path;
// the histograms are optional (nil when metrics are disabled) and every
// recording site tolerates their absence.
type Stats struct {
	OpsServed   [12]atomic.Uint64 // indexed by request op - 1 (through opAnnounce)
	ProtoErrors atomic.Uint64    // malformed frames received
	Timeouts    atomic.Uint64    // blocking ops expired server-side
	Canceled    atomic.Uint64    // waiters withdrawn (disconnect/shutdown)
	Redirects   atomic.Uint64    // keyed ops refused by the cluster route check
	Blocked     atomic.Int64     // gauge: ops currently inside a blocking Get/Rd
	BytesIn     atomic.Uint64    // frame bytes received
	BytesOut    atomic.Uint64    // frame bytes sent
	Conns       atomic.Uint64    // connections accepted, cumulative
	ConnsActive atomic.Int64     // gauge: connections currently open

	OpLatency [12]*obs.Histogram // per-op service latency, indexed by op - 1

	// Pipelining instrumentation, always armed (one lock-free observe per
	// frame): PipelineDepth samples how many requests were in flight on the
	// arriving frame's connection (1 = strict request/response), BatchSize
	// samples how many Puts each BATCH frame coalesced.
	PipelineDepth *obs.Histogram
	BatchSize     *obs.Histogram
	BatchPuts     atomic.Uint64 // tuples deposited via BATCH frames
}

func (s *Stats) serve(op byte) {
	if op >= 1 && int(op) <= len(s.OpsServed) {
		s.OpsServed[op-1].Add(1)
	}
}

// initLatency arms the per-op histograms (metric recording on).
func (s *Stats) initLatency() {
	for i := range s.OpLatency {
		s.OpLatency[i] = obs.NewHistogram()
	}
}

// countBuckets bounds the histograms whose samples are counts (requests in
// flight, Puts per frame): powers of two from 1 to 4096, so a full batch and
// a deep pipeline land in finite buckets and their quantiles do not clamp.
var countBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// initPipeline arms the always-on pipelining histograms; recording sites
// tolerate nil, but every server arms them (one atomic add per frame).
func (s *Stats) initPipeline() {
	s.PipelineDepth = obs.NewHistogram(countBuckets...)
	s.BatchSize = obs.NewHistogram(countBuckets...)
}

// observe records one op's service latency; a no-op when histograms are
// off or the op is out of range.
func (s *Stats) observe(op byte, d time.Duration) {
	if op >= 1 && int(op) <= len(s.OpLatency) {
		if h := s.OpLatency[op-1]; h != nil {
			h.Observe(d.Seconds())
		}
	}
}

// Snapshot copies the counters and attaches the per-space depths.
func (s *Stats) Snapshot(depths map[string]int) StatsSnapshot {
	snap := StatsSnapshot{
		Ops:         make(map[string]uint64, len(s.OpsServed)),
		ProtoErrors: s.ProtoErrors.Load(),
		Timeouts:    s.Timeouts.Load(),
		Canceled:    s.Canceled.Load(),
		Redirects:   s.Redirects.Load(),
		Blocked:     s.Blocked.Load(),
		BytesIn:     s.BytesIn.Load(),
		BytesOut:    s.BytesOut.Load(),
		Conns:       s.Conns.Load(),
		ConnsActive: s.ConnsActive.Load(),
		BatchPuts:   s.BatchPuts.Load(),
		SpaceDepths: depths,
	}
	for i := range s.OpsServed {
		if n := s.OpsServed[i].Load(); n > 0 {
			snap.Ops[opName(byte(i+1))] = n
		}
	}
	snap.OpLatency = map[string]LatencySummary{}
	for i, h := range s.OpLatency {
		if h == nil {
			continue
		}
		hs := h.Snapshot()
		if hs.Count == 0 {
			continue
		}
		snap.OpLatency[opName(byte(i+1))] = LatencySummary{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
	}
	if snap.SpaceDepths == nil {
		snap.SpaceDepths = map[string]int{}
	}
	return snap
}

// LatencySummary is the wire-portable digest of one op's latency
// histogram: bucket-interpolated quantiles in seconds plus the sample
// count. It is what -dump-stats and fabric clients see without HTTP.
type LatencySummary struct {
	Count         uint64
	P50, P95, P99 float64 // seconds
}

// StatsSnapshot is a plain-value copy of Stats plus per-space depths; it
// is what the STATS wire op ships.
type StatsSnapshot struct {
	Ops         map[string]uint64 // per-op served counts, by op name
	ProtoErrors uint64
	Timeouts    uint64
	Canceled    uint64
	Redirects   uint64
	Blocked     int64
	BytesIn     uint64
	BytesOut    uint64
	Conns       uint64
	ConnsActive int64
	BatchPuts   uint64
	SpaceDepths map[string]int
	OpLatency   map[string]LatencySummary // per-op latency digests, by op name
}

// OpsTotal sums the per-op counters.
func (s StatsSnapshot) OpsTotal() uint64 {
	var n uint64
	for _, v := range s.Ops {
		n += v
	}
	return n
}

// counters flattens the snapshot for the wire (op counters prefixed
// "op.").
func (s StatsSnapshot) counters() map[string]int64 {
	m := map[string]int64{
		"proto_errors": int64(s.ProtoErrors),
		"timeouts":     int64(s.Timeouts),
		"canceled":     int64(s.Canceled),
		"redirects":    int64(s.Redirects),
		"blocked":      s.Blocked,
		"bytes_in":     int64(s.BytesIn),
		"bytes_out":    int64(s.BytesOut),
		"conns":        int64(s.Conns),
		"conns_active": s.ConnsActive,
		"batch_puts":   int64(s.BatchPuts),
	}
	for op, v := range s.Ops {
		m["op."+op] = int64(v)
	}
	// Latency digests flatten to integer-nanosecond counters, keeping the
	// STATS wire format a flat string→int64 map (old peers simply ignore
	// the unknown keys).
	for op, ls := range s.OpLatency {
		m["lat."+op+".count"] = int64(ls.Count)
		m["lat."+op+".p50_ns"] = int64(ls.P50 * 1e9)
		m["lat."+op+".p95_ns"] = int64(ls.P95 * 1e9)
		m["lat."+op+".p99_ns"] = int64(ls.P99 * 1e9)
	}
	return m
}

// setCounters is the wire-decoding inverse of counters.
func (s *StatsSnapshot) setCounters(m map[string]int64) {
	s.Ops = make(map[string]uint64)
	s.OpLatency = make(map[string]LatencySummary)
	for k, v := range m {
		switch k {
		case "proto_errors":
			s.ProtoErrors = uint64(v)
		case "timeouts":
			s.Timeouts = uint64(v)
		case "canceled":
			s.Canceled = uint64(v)
		case "redirects":
			s.Redirects = uint64(v)
		case "blocked":
			s.Blocked = v
		case "bytes_in":
			s.BytesIn = uint64(v)
		case "bytes_out":
			s.BytesOut = uint64(v)
		case "conns":
			s.Conns = uint64(v)
		case "conns_active":
			s.ConnsActive = v
		case "batch_puts":
			s.BatchPuts = uint64(v)
		default:
			if op, ok := strings.CutPrefix(k, "op."); ok {
				s.Ops[op] = uint64(v)
			} else if rest, ok := strings.CutPrefix(k, "lat."); ok {
				op, field, ok := strings.Cut(rest, ".")
				if !ok {
					continue
				}
				ls := s.OpLatency[op]
				switch field {
				case "count":
					ls.Count = uint64(v)
				case "p50_ns":
					ls.P50 = float64(v) / 1e9
				case "p95_ns":
					ls.P95 = float64(v) / 1e9
				case "p99_ns":
					ls.P99 = float64(v) / 1e9
				default:
					continue
				}
				s.OpLatency[op] = ls
			}
		}
	}
}

// String renders the snapshot as the table -dump-stats prints.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops served: %d", s.OpsTotal())
	ops := make([]string, 0, len(s.Ops))
	for op := range s.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(&b, "  %s=%d", op, s.Ops[op])
	}
	fmt.Fprintf(&b, "\nblocked waiters: %d   timeouts: %d   canceled: %d   redirects: %d   protocol errors: %d\n",
		s.Blocked, s.Timeouts, s.Canceled, s.Redirects, s.ProtoErrors)
	fmt.Fprintf(&b, "bytes in/out: %d/%d   conns: %d (%d active)\n",
		s.BytesIn, s.BytesOut, s.Conns, s.ConnsActive)
	lops := make([]string, 0, len(s.OpLatency))
	for op := range s.OpLatency {
		lops = append(lops, op)
	}
	sort.Strings(lops)
	for _, op := range lops {
		ls := s.OpLatency[op]
		fmt.Fprintf(&b, "latency %-8s p50=%s p95=%s p99=%s (n=%d)\n",
			op, latencyDur(ls.P50), latencyDur(ls.P95), latencyDur(ls.P99), ls.Count)
	}
	names := make([]string, 0, len(s.SpaceDepths))
	for n := range s.SpaceDepths {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "space %-20q depth %d\n", n, s.SpaceDepths[n])
	}
	return b.String()
}

// latencyDur renders a seconds value as a rounded duration string.
func latencyDur(sec float64) string {
	return time.Duration(sec * 1e9).Round(time.Microsecond).String()
}
