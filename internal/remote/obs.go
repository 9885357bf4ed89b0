package remote

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tspace"
)

// ServerCollector exposes a fabric server's counters and per-op latency
// histograms to the obs registry. Space depths are not emitted here — the
// registry's tspace.RegistryCollector owns sting_tspace_depth — so one
// scrape composed of both sources stays free of duplicates.
type ServerCollector struct {
	Server *Server
}

// Collect implements obs.Collector.
func (c ServerCollector) Collect() []obs.Metric {
	srv := c.Server
	if srv == nil {
		return nil
	}
	s := &srv.stats
	out := []obs.Metric{
		obs.Counter("sting_remote_proto_errors_total", "Malformed frames received.", float64(s.ProtoErrors.Load())),
		obs.Counter("sting_remote_timeouts_total", "Blocking ops expired server-side.", float64(s.Timeouts.Load())),
		obs.Counter("sting_remote_canceled_total", "Waiters withdrawn by disconnect or shutdown.", float64(s.Canceled.Load())),
		obs.Counter("sting_remote_redirects_total", "Keyed ops refused by the cluster route check.", float64(s.Redirects.Load())),
		obs.Gauge("sting_remote_blocked", "Ops currently parked inside a blocking Get/Rd.", float64(s.Blocked.Load())),
		obs.Counter("sting_remote_bytes_in_total", "Frame bytes received.", float64(s.BytesIn.Load())),
		obs.Counter("sting_remote_bytes_out_total", "Frame bytes sent.", float64(s.BytesOut.Load())),
		obs.Counter("sting_remote_conns_total", "Connections accepted.", float64(s.Conns.Load())),
		obs.Gauge("sting_remote_conns_active", "Connections currently open.", float64(s.ConnsActive.Load())),
	}
	for i := range s.OpsServed {
		op := byte(i + 1)
		if n := s.OpsServed[i].Load(); n > 0 {
			out = append(out, obs.Counter("sting_remote_ops_total", "Requests served, by wire op.", float64(n), obs.L("op", opName(op))))
		}
	}
	for i, h := range s.OpLatency {
		if h == nil {
			continue
		}
		out = append(out, obs.HistogramSample("sting_remote_op_latency_seconds",
			"Service latency from frame arrival to response completion, by wire op.",
			h, obs.L("op", opName(byte(i+1)))))
	}
	if s.PipelineDepth != nil {
		out = append(out, obs.HistogramSample("sting_remote_pipeline_depth",
			"In-flight requests on a connection when each frame arrived (1 = strict request/response).",
			s.PipelineDepth))
	}
	if s.BatchSize != nil {
		out = append(out, obs.HistogramSample("sting_remote_batch_size",
			"Puts coalesced per BATCH frame.", s.BatchSize))
	}
	out = append(out,
		obs.Counter("sting_remote_batch_puts_total", "Tuples deposited via BATCH frames.", float64(s.BatchPuts.Load())),
		obs.Gauge("sting_remote_conn_pool_size", "Largest connection-pool size announced by a live client (ANNOUNCE).", float64(srv.maxAnnouncedPool())))
	return out
}

// WriteStats renders what the STATS op answers, as Prometheus text: the
// server's own counters and latency histograms (ServerCollector) and its
// spaces' depths, waiters and wakes (tspace.RegistryCollector).
func (s *Server) WriteStats(w io.Writer) error {
	r := obs.NewRegistry()
	r.Register("remote", ServerCollector{Server: s})
	r.Register("tspace", tspace.RegistryCollector{Registry: s.reg})
	return obs.WritePrometheus(w, r.Gather())
}

// clientMetrics instruments one fabric client: dial latency (including
// backoff sleeps), per-op round-trip latency, and retry/timeout counts.
// All recording is lock-free; a zero histogram pointer disables its site.
type clientMetrics struct {
	dialLatency  *obs.Histogram
	opLatency    [12]*obs.Histogram
	dialRetries  atomic.Uint64
	dialFails    atomic.Uint64
	opRetries    atomic.Uint64
	timeouts     atomic.Uint64
	batchFlushes atomic.Uint64 // BATCH frames written
	batchedPuts  atomic.Uint64 // puts that traveled inside a BATCH frame
}

func newClientMetrics() *clientMetrics {
	m := &clientMetrics{dialLatency: obs.NewHistogram()}
	for i := range m.opLatency {
		m.opLatency[i] = obs.NewHistogram()
	}
	return m
}

func (m *clientMetrics) observeOp(op byte, d time.Duration) {
	if m == nil {
		return
	}
	if op >= 1 && int(op) <= len(m.opLatency) {
		if h := m.opLatency[op-1]; h != nil {
			h.Observe(d.Seconds())
		}
	}
}

// ClientCollector exposes one client's dial/op/retry/timeout metrics,
// labelled by the server address it targets.
type ClientCollector struct {
	Client *Client
}

// Collect implements obs.Collector.
func (c ClientCollector) Collect() []obs.Metric {
	cl := c.Client
	if cl == nil || cl.metrics == nil {
		return nil
	}
	m := cl.metrics
	addr := obs.L("addr", cl.addr)
	out := []obs.Metric{
		obs.HistogramSample("sting_remote_client_dial_seconds", "Connect+HELLO latency per successful dial, including backoff.", m.dialLatency, addr),
		obs.Counter("sting_remote_client_dial_retries_total", "Dial attempts beyond the first.", float64(m.dialRetries.Load()), addr),
		obs.Counter("sting_remote_client_dial_failures_total", "Dials that exhausted their retry budget.", float64(m.dialFails.Load()), addr),
		obs.Counter("sting_remote_client_op_retries_total", "Operation re-sends after a provably unwritten frame.", float64(m.opRetries.Load()), addr),
		obs.Counter("sting_remote_client_timeouts_total", "Operations that exceeded their deadline.", float64(m.timeouts.Load()), addr),
		obs.Counter("sting_remote_client_batch_flushes_total", "BATCH frames written.", float64(m.batchFlushes.Load()), addr),
		obs.Counter("sting_remote_client_batched_puts_total", "Puts coalesced into BATCH frames.", float64(m.batchedPuts.Load()), addr),
		obs.Gauge("sting_remote_conn_pool_size", "Connections in this client's pool.", float64(len(cl.conns)), addr),
	}
	for i, h := range m.opLatency {
		if h == nil || h.Count() == 0 {
			continue
		}
		out = append(out, obs.HistogramSample("sting_remote_client_op_latency_seconds",
			"Client-observed round-trip latency, by wire op.",
			h, addr, obs.L("op", opName(byte(i+1)))))
	}
	return out
}

// Collector returns an obs.Collector over this client's metrics, ready to
// Register into a registry.
func (c *Client) Collector() obs.Collector { return ClientCollector{Client: c} }
