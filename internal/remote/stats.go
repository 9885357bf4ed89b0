package remote

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats counts server-side fabric events, mirroring the core.VPStats
// snapshot idiom: cumulative atomic counters and a plain-value Snapshot;
// ServerCollector renders them for /metrics and the STATS op. OpLatency
// carries one lock-free histogram per wire op, recorded in the server
// dispatch path; the histograms are optional (nil when metrics are
// disabled) and every recording site tolerates their absence.
type Stats struct {
	OpsServed   [12]atomic.Uint64 // indexed by request op - 1 (through opAnnounce)
	ProtoErrors atomic.Uint64     // malformed frames received
	Timeouts    atomic.Uint64     // blocking ops expired server-side
	Canceled    atomic.Uint64     // waiters withdrawn (disconnect/shutdown)
	Redirects   atomic.Uint64     // keyed ops refused by the cluster route check
	Blocked     atomic.Int64      // gauge: ops currently inside a blocking Get/Rd
	BytesIn     atomic.Uint64     // frame bytes received
	BytesOut    atomic.Uint64     // frame bytes sent
	Conns       atomic.Uint64     // connections accepted, cumulative
	ConnsActive atomic.Int64      // gauge: connections currently open

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

// LatencySummary is the in-process digest of one op's latency histogram:
// bucket-interpolated quantiles in seconds plus the sample count.
type LatencySummary struct {
	Count         uint64
	P50, P95, P99 float64 // seconds
}

// StatsSnapshot is a plain-value copy of Stats plus per-space depths, for
// in-process readers; the STATS wire op ships Server.WriteStats instead.
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
