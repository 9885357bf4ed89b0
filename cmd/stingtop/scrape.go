package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// scrape is one poll of a node's observability surface: the parsed
// /metrics exposition and the /readyz verdict.
type scrape struct {
	metrics []obs.Metric
	ready   bool
	err     error
}

// poller scrapes one node.
type poller struct {
	id       string
	endpoint string // host:port of the node's -http listener
	client   *http.Client
	last     []obs.Metric // the last good scrape, node label stripped
}

func newPoller(id, endpoint string, timeout time.Duration) *poller {
	endpoint = strings.TrimPrefix(endpoint, "http://")
	return &poller{id: id, endpoint: endpoint, client: &http.Client{Timeout: timeout}}
}

// poll scrapes the node once; transport failures and non-200 answers land
// in scrape.err and render as a down row instead of killing the dashboard.
func (p *poller) poll() scrape {
	var s scrape
	resp, err := p.client.Get("http://" + p.endpoint + "/metrics")
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("/metrics: %s", resp.Status)
		return s
	}
	if s.metrics, s.err = obs.ParsePrometheus(resp.Body); s.err != nil {
		return s
	}
	if resp, err := p.client.Get("http://" + p.endpoint + "/readyz"); err == nil {
		s.ready = resp.StatusCode == http.StatusOK
		resp.Body.Close() //nolint:errcheck
	}
	return s
}

// top is the dashboard: its pollers, the one store every scrape lands in,
// and the SLO engine evaluated over that store after each round.
type top struct {
	pollers []*poller
	store   *store
	slo     *sloEngine
	window  time.Duration // the trailing window rates and quantiles cover
	total   []obs.Metric  // the cluster's running counters and histograms
}

func newTop(pollers []*poller, objectives []*objective, window time.Duration) *top {
	return &top{pollers: pollers, store: newStore(), slo: newSLOEngine(objectives), window: window}
}

// report is one round's document: every node row, the cluster rollup,
// and every objective's status.
type report struct {
	Nodes   []nodeRow  `json:"nodes"`
	Cluster clusterRow `json:"cluster"`
	SLOs    []status   `json:"slos,omitempty"`
}

// gather runs one round. Each up node's series are stored with node=<id>;
// then one cluster series per (family, labels), without a node label, is
// stored. Cluster gauges are the up nodes' sum. Cluster counters and
// histograms are running totals that start at the first round's sum and
// then advance by each up node's increase since its last good scrape, so
// a node that misses rounds adds its real increments when it answers
// again, and a node first seen after the first round adds nothing until
// its second scrape. The objectives are evaluated over the store, and
// every row is read back from it.
func (t *top) gather() report {
	now := time.Now()
	rep := report{Nodes: make([]nodeRow, len(t.pollers))}
	var gauges, incs [][]obs.Metric
	first := t.total == nil
	for i, p := range t.pollers {
		s := p.poll()
		row := nodeRow{ID: p.id, Endpoint: p.endpoint}
		if s.err != nil {
			row.Err = s.err.Error()
			rep.Nodes[i] = row
			continue
		}
		bare := withNode(s.metrics, "")
		gauges = append(gauges, gaugesOf(bare))
		if p.last != nil || first {
			incs = append(incs, increase(bare, p.last))
		}
		p.last = bare
		ms := withNode(s.metrics, p.id)
		t.store.ingest(now, ms)
		row.Up, row.Ready = true, s.ready
		if bi := buildLabels(s.metrics); bi != nil {
			row.GoVersion, row.Proto, row.Engine = bi["go_version"], bi["proto"], bi["engine"]
		}
		row.figures = t.figures(ms)
		rep.Nodes[i] = row
		rep.Cluster.NodesUp++
	}
	t.total = sumSeries(append([][]obs.Metric{t.total}, incs...)...)
	cluster := append(sumSeries(gauges...), t.total...)
	t.store.ingest(now, cluster)
	rep.SLOs = t.slo.evaluate(now, t.store)
	rep.Cluster.NodesTotal, rep.Cluster.figures = len(t.pollers), t.figures(cluster)
	if len(rep.SLOs) > 0 {
		rep.Cluster.SLOState = worstState(rep.SLOs).String()
		for _, s := range rep.SLOs {
			if s.State == stateBreach {
				rep.Cluster.Breaching = append(rep.Cluster.Breaching, s.Name)
			}
		}
	}
	return rep
}

// withNode returns ms with any scraped node label dropped and, unless id
// is empty, node=<id> added: the label that scopes a series to one node.
func withNode(ms []obs.Metric, id string) []obs.Metric {
	out := make([]obs.Metric, len(ms))
	for i, m := range ms {
		var ls []obs.Label
		for _, l := range m.Labels {
			if l.Key != "node" {
				ls = append(ls, l)
			}
		}
		if id != "" {
			ls = append(ls, obs.L("node", id))
		}
		m.Labels = ls
		out[i] = m
	}
	return out
}

// gaugesOf returns the gauges in ms.
func gaugesOf(ms []obs.Metric) []obs.Metric {
	var out []obs.Metric
	for _, m := range ms {
		if m.Kind == obs.KindGauge {
			out = append(out, m)
		}
	}
	return out
}

// figures reads one scope's dashboard figures: gauges from the round's
// samples ms, rates and latency quantiles from the store over the window.
func (t *top) figures(ms []obs.Metric) figures {
	f := figures{
		VPs:           sumValues(ms, "sting_vm_vps"),
		RunqDepth:     sumValues(ms, "sting_vp_runq_depth"),
		TupleDepth:    sumValues(ms, "sting_tspace_depth"),
		Waiters:       sumValues(ms, "sting_tspace_waiters"),
		StealRate:     t.rate(ms, "sting_vp_steals_total"),
		OpsRate:       t.rate(ms, "sting_remote_ops_total"),
		StmCommitRate: t.rate(ms, "sting_stm_commits_total"),
		StmAbortRate:  t.rate(ms, "sting_stm_aborts_total"),
	}
	if h := t.latency(ms, "sting_remote_op_latency_seconds"); h.Count > 0 {
		f.RemoteCount = h.Count
		f.RemoteP50 = h.Quantile(0.50)
		f.RemoteP99 = h.Quantile(0.99)
	}
	return f
}

// sumValues sums a family's value across all its label sets — per-VP and
// per-space gauges fold into one figure.
func sumValues(ms []obs.Metric, name string) float64 {
	var sum float64
	for _, m := range ms {
		if m.Name == name && m.Kind != obs.KindHistogram {
			sum += m.Value
		}
	}
	return sum
}

// rate sums store.rate over every series of a counter family in ms.
func (t *top) rate(ms []obs.Metric, name string) float64 {
	var sum float64
	for _, m := range ms {
		if m.Name == name {
			r, _ := t.store.rate(name, m.Labels, t.window)
			sum += r
		}
	}
	return sum
}

// latency merges a histogram family's series in ms over the window; when
// the window saw no traffic it falls back to the since-boot histograms.
func (t *top) latency(ms []obs.Metric, name string) *obs.HistogramSnapshot {
	var window, boot []*obs.HistogramSnapshot
	for _, m := range ms {
		if m.Name != name || m.Kind != obs.KindHistogram {
			continue
		}
		boot = append(boot, m.Hist)
		if h, ok := t.store.windowHistogram(name, m.Labels, t.window); ok {
			window = append(window, h)
		}
	}
	if h := mergeHistograms(window...); h.Count > 0 {
		return h
	}
	return mergeHistograms(boot...)
}

// buildLabels finds the sting_build_info sample and returns its labels.
func buildLabels(ms []obs.Metric) map[string]string {
	for _, m := range ms {
		if m.Name == "sting_build_info" {
			out := make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				out[l.Key] = l.Value
			}
			return out
		}
	}
	return nil
}

// figures are the dashboard columns a node row and the cluster row share.
type figures struct {
	VPs           float64 `json:"vps"`
	RunqDepth     float64 `json:"runq_depth"`
	StealRate     float64 `json:"steal_rate"`
	TupleDepth    float64 `json:"tspace_depth"`
	Waiters       float64 `json:"tspace_waiters"`
	OpsRate       float64 `json:"ops_rate"`
	StmCommitRate float64 `json:"stm_commit_rate"`
	StmAbortRate  float64 `json:"stm_abort_rate"`

	RemoteCount uint64  `json:"remote_count"`
	RemoteP50   float64 `json:"remote_p50_s"`
	RemoteP99   float64 `json:"remote_p99_s"`
}

// nodeRow is one dashboard line (and one JSON element in -once -json).
type nodeRow struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Up       bool   `json:"up"`
	Err      string `json:"err,omitempty"`
	Ready    bool   `json:"ready"`

	GoVersion string `json:"go_version,omitempty"`
	Proto     string `json:"proto,omitempty"`
	Engine    string `json:"engine,omitempty"`

	figures
}

// clusterRow is the rollup line, read from the cluster series: sums for
// additive figures, true merged quantiles for latency, and the worst
// objective state with the names of those in breach.
type clusterRow struct {
	NodesUp    int `json:"nodes_up"`
	NodesTotal int `json:"nodes_total"`

	figures

	SLOState  string   `json:"slo_state,omitempty"`
	Breaching []string `json:"breaching,omitempty"`
}
