package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// fakeNode serves a synthetic observability surface: /metrics rendered by
// the repo's own writer and a /readyz verdict.
type fakeNode struct {
	mu      func() []obs.Metric
	ready   bool
	down    bool // answer /metrics with a 503
	scrapes int
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.scrapes++
		if f.down {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, f.mu()); err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		w.Write(buf.Bytes()) //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte("x")) //nolint:errcheck
	})
	return mux
}

func TestRollupMergesShards(t *testing.T) {
	// Shard 1: fast gets. Shard 2: slow puts. The cluster p99 must come
	// from the union, and the merged count must equal the sum.
	h1 := obs.NewHistogram(obs.LatencyBuckets...)
	for i := 0; i < 99; i++ {
		h1.Observe(0.0005)
	}
	h2 := obs.NewHistogram(obs.LatencyBuckets...)
	for i := 0; i < 10; i++ {
		h2.Observe(0.8)
	}
	var ops1, ops2 float64
	n1 := &fakeNode{ready: true, mu: func() []obs.Metric {
		ops1 += 50
		return []obs.Metric{
			obs.Gauge("sting_build_info", "b", 1, obs.L("go_version", "go1.24"), obs.L("proto", "4"), obs.L("engine", "vm")),
			obs.Gauge("sting_vm_vps", "v", 4, obs.L("vm", "srv")),
			obs.Gauge("sting_vp_runq_depth", "r", 3, obs.L("vp", "0")),
			obs.Gauge("sting_vp_runq_depth", "r", 2, obs.L("vp", "1")),
			obs.Counter("sting_remote_ops_total", "o", ops1, obs.L("op", "get")),
			obs.HistogramSample("sting_remote_op_latency_seconds", "l", h1, obs.L("op", "get")),
		}
	}}
	n2 := &fakeNode{ready: false, mu: func() []obs.Metric {
		ops2 += 10
		return []obs.Metric{
			obs.Gauge("sting_vm_vps", "v", 2, obs.L("vm", "srv")),
			obs.Counter("sting_remote_ops_total", "o", ops2, obs.L("op", "put")),
			obs.HistogramSample("sting_remote_op_latency_seconds", "l", h2, obs.L("op", "put")),
		}
	}}

	s1 := httptest.NewServer(n1.handler())
	defer s1.Close()
	s2 := httptest.NewServer(n2.handler())
	defer s2.Close()

	// vps and ops judge the cluster series: 4+2 VPs breach "< 6" although
	// neither node does, the case only the summed series can catch. The
	// {node=…} objectives judge one node each.
	objectives, err := tsdb.ParseObjectives(`
vps: sting_vm_vps{vm=srv} value < 6
ops: sting_remote_ops_total{op=get} rate > 0/s over 10s
n1-vps: sting_vm_vps{vm=srv,node=n1} value < 6
n2-put: remote.put{node=n2} p99 < 1ms over 10s
`)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTop([]*poller{
		newPoller("n1", s1.Listener.Addr().String(), time.Second),
		newPoller("n2", s2.Listener.Addr().String(), time.Second),
	}, objectives, time.Second)
	tp.gather() // prime rate baselines
	rep := tp.gather()

	if len(rep.Nodes) != 2 || !rep.Nodes[0].Up || !rep.Nodes[1].Up {
		t.Fatalf("nodes = %+v", rep.Nodes)
	}
	r1, r2, c := rep.Nodes[0], rep.Nodes[1], rep.Cluster

	if r1.GoVersion != "go1.24" || r1.Proto != "4" || r1.Engine != "vm" {
		t.Fatalf("build info = %q/%q/%q", r1.GoVersion, r1.Proto, r1.Engine)
	}
	if !r1.Ready || r2.Ready {
		t.Fatalf("ready = %v/%v, want true/false", r1.Ready, r2.Ready)
	}
	if r1.RunqDepth != 5 {
		t.Fatalf("summed runq = %g, want 5", r1.RunqDepth)
	}
	if r1.OpsRate <= 0 {
		t.Fatalf("ops rate = %g, want > 0 (two scrapes with a moving counter)", r1.OpsRate)
	}

	// The acceptance property: merged count equals the shard sum, and the
	// merged p99 is a true union quantile bounded by the shard p99s.
	if want := r1.RemoteCount + r2.RemoteCount; c.RemoteCount != want {
		t.Fatalf("cluster count = %d, want %d", c.RemoteCount, want)
	}
	if c.RemoteP99 <= 0 {
		t.Fatalf("cluster p99 = %g, want > 0", c.RemoteP99)
	}
	lo, hi := r1.RemoteP99, r2.RemoteP99
	if lo > hi {
		lo, hi = hi, lo
	}
	if c.RemoteP99 < lo-1e-12 || c.RemoteP99 > hi+1e-12 {
		t.Fatalf("cluster p99 = %g outside shard range [%g, %g]", c.RemoteP99, lo, hi)
	}
	// 109 observations, 10 of them at 0.8s: the union p99 lands in the
	// slow tail even though the majority shard's p99 is sub-millisecond.
	if c.RemoteP99 < 0.1 {
		t.Fatalf("cluster p99 = %g, want the slow shard's tail to dominate", c.RemoteP99)
	}

	if c.VPs != 6 {
		t.Fatalf("cluster vps = %g, want 6", c.VPs)
	}
	states := map[string]string{}
	for _, s := range rep.SLOs {
		states[s.Name] = s.State
	}
	if states["vps"] != "breach" || states["ops"] != "ok" || states["n1-vps"] != "ok" || states["n2-put"] != "breach" {
		t.Fatalf("slo states = %v, want vps and n2-put in breach, ops and n1-vps ok", states)
	}
	if c.SLOState != "breach" {
		t.Fatalf("cluster slo state = %q, want breach (worst-of)", c.SLOState)
	}
	if len(c.Breaching) != 2 || c.Breaching[0] != "vps" || c.Breaching[1] != "n2-put" {
		t.Fatalf("breaching = %v, want [vps n2-put]", c.Breaching)
	}
	if c.NodesUp != 2 || c.NodesTotal != 2 {
		t.Fatalf("nodes up = %d/%d", c.NodesUp, c.NodesTotal)
	}
}

func TestRollupSpansDownRound(t *testing.T) {
	// Both nodes count the same series; n2 starts with a large since-boot
	// count, misses round 2 and answers again in round 3. The cluster
	// counter must advance by n2's real increment only, so its rate is the
	// sum of the node rows' rates and a cluster rate objective holds.
	var ops1, ops2 float64
	n1 := &fakeNode{ready: true, mu: func() []obs.Metric {
		ops1 += 50
		return []obs.Metric{obs.Counter("sting_remote_ops_total", "o", ops1, obs.L("op", "put"))}
	}}
	n2 := &fakeNode{ready: true, mu: func() []obs.Metric {
		ops2 += 10
		return []obs.Metric{obs.Counter("sting_remote_ops_total", "o", 1e12+ops2, obs.L("op", "put"))}
	}}
	s1 := httptest.NewServer(n1.handler())
	defer s1.Close()
	s2 := httptest.NewServer(n2.handler())
	defer s2.Close()
	objectives, err := tsdb.ParseObjectives("ops: sting_remote_ops_total{op=put} rate < 1e10/s over 1m")
	if err != nil {
		t.Fatal(err)
	}
	tp := newTop([]*poller{
		newPoller("n1", s1.Listener.Addr().String(), time.Second),
		newPoller("n2", s2.Listener.Addr().String(), time.Second),
	}, objectives, time.Minute)
	tp.gather()
	n2.down = true
	if rep := tp.gather(); rep.Nodes[1].Up || rep.Cluster.NodesUp != 1 {
		t.Fatalf("round 2 nodes = %+v, want n2 down", rep.Nodes)
	}
	n2.down = false
	rep := tp.gather()
	r1, r2, c := rep.Nodes[0], rep.Nodes[1], rep.Cluster
	if !r2.Up || r1.OpsRate <= 0 || r2.OpsRate <= 0 {
		t.Fatalf("round 3 rows = %+v, want both up with moving counters", rep.Nodes)
	}
	if want := r1.OpsRate + r2.OpsRate; math.Abs(c.OpsRate-want) > 1e-9*want {
		t.Fatalf("cluster ops rate = %g, want %g + %g", c.OpsRate, r1.OpsRate, r2.OpsRate)
	}
	if len(rep.SLOs) != 1 || rep.SLOs[0].State != "ok" {
		t.Fatalf("slos = %+v, want the cluster rate objective ok", rep.SLOs)
	}
}

func TestDownNodeRendersAsDown(t *testing.T) {
	// One node refuses connections; the other answers /metrics with a
	// non-200 whose body is not an exposition.
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining now", http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	tp := newTop([]*poller{
		newPoller("gone", "127.0.0.1:1", 200*time.Millisecond),
		newPoller("draining", draining.Listener.Addr().String(), time.Second),
	}, nil, time.Second)
	rep := tp.gather()
	gone, drn := rep.Nodes[0], rep.Nodes[1]
	if gone.Up || gone.Err == "" {
		t.Fatalf("row = %+v, want down with error", gone)
	}
	if drn.Up || !strings.Contains(drn.Err, "503") {
		t.Fatalf("row = %+v, want down with the 503 status in Err", drn)
	}
	if c := rep.Cluster; c.NodesUp != 0 || c.NodesTotal != 2 {
		t.Fatalf("rollup of down nodes = %+v", c)
	}
	var buf bytes.Buffer
	renderTable(&buf, rep)
	if strings.Count(buf.String(), "DOWN") != 2 {
		t.Fatalf("table missing DOWN rows:\n%s", buf.String())
	}
}

func TestBuildPollersSpecForms(t *testing.T) {
	ps, err := buildPollers("n1=127.0.0.1:9091,n2=127.0.0.1:9092", time.Second)
	if err != nil || len(ps) != 2 || ps[0].endpoint != "127.0.0.1:9091" {
		t.Fatalf("compact spec = %+v, %v", ps, err)
	}
	if _, err := buildPollers("", time.Second); err == nil {
		t.Fatal("empty spec accepted")
	}
}
