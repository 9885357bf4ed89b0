package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/stm"
	"repro/internal/tspace"
)

// TestObsHandlerExposesRequiredFamilies boots a real fabric server with
// the observability surface attached, drives traffic through it, and
// asserts the acceptance-criteria metric families appear in /metrics,
// /healthz tracks the drain flag, and /debug/trace is valid trace_event
// JSON.
func TestObsHandlerExposesRequiredFamilies(t *testing.T) {
	m := core.NewMachine(core.MachineConfig{Processors: 2})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{Name: "obs-test", VPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	srv := remote.NewServer(vm, remote.ServerConfig{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Shutdown()

	trace := core.NewTraceRing(4096)
	core.SetTracer(trace.Record)
	defer core.SetTracer(nil)

	spans := obs.NewSpanRing(256)
	obs.SetSpanSink(spans.Record)
	defer obs.SetSpanSink(nil)

	var draining atomic.Bool
	d := diag.New(diag.Config{
		Node:    "test-node",
		Waiters: []diag.WaiterSource{reg},
		VM:      vm,
	})
	d.Start()
	defer d.Stop()
	h := buildObsHandler(vm, reg, srv, obsWiring{
		trace:    trace,
		spans:    spans,
		d:        d,
		node:     "test-node",
		draining: &draining,
	})
	web := httptest.NewServer(h)
	defer web.Close()

	// Drive traffic so every collector has something to report: a dial, a
	// Put (spawns a STING thread, emitting trace events), a depth.
	c, err := remote.Dial(nil, ln.Addr().String(), remote.DialConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close() //nolint:errcheck
	sp := c.Space("jobs")
	if err := sp.Put(nil, tspace.Tuple{"job", 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// One finished span so /debug/spans and the span metrics have content.
	obs.StartSpan(obs.SpanContext{}, "obs-test-root", obs.SpanInternal).End()

	// A server-side transactional commit (TXNCOMMIT over the wire) and a
	// client-side aborted transaction, so the sting_stm_* collector has
	// non-zero commit and abort counts. The abort must close its stm/txn
	// span — OpenSpans returning to base catches a leaked span.
	if err := c.CommitTxn(nil, []tspace.TxnOp{
		{Kind: tspace.TxnPut, Space: "jobs", Tup: tspace.Tuple{"job", 2}},
	}); err != nil {
		t.Fatalf("CommitTxn: %v", err)
	}
	baseOpen := obs.OpenSpans()
	if _, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		local := tspace.New(tspace.KindHash, tspace.Config{})
		err := stm.Atomic(ctx, func(tx *stm.Txn) error {
			if err := tx.Put(local, tspace.Tuple{"scrap", 1}); err != nil {
				return err
			}
			return tx.Abort()
		})
		if !errors.Is(err, stm.ErrAborted) {
			t.Errorf("Atomic abort = %v, want ErrAborted", err)
		}
		return nil, nil
	}); err != nil {
		t.Fatalf("vm.Run: %v", err)
	}
	if open := obs.OpenSpans(); open != baseOpen {
		t.Errorf("OpenSpans = %d after aborted txn, want %d (span leaked)", open, baseOpen)
	}

	body := get(t, web.URL+"/metrics")
	for _, family := range []string{
		"sting_vp_dispatches_total",
		"sting_vp_steal_batches_total",
		"sting_vp_failed_steals_total",
		"sting_tspace_depth",
		"sting_tspace_wakes_total",
		"sting_tspace_wake_misses_total",
		"sting_tspace_wake_handoffs_total",
		"sting_remote_op_latency_seconds_bucket",
		"sting_remote_conns_active",
		"sting_remote_pipeline_depth",
		"sting_remote_batch_size",
		"sting_remote_conn_pool_size",
		"sting_stm_commits_total",
		"sting_stm_aborts_total",
		"sting_stm_retries_total",
		"sting_stm_commit_latency_seconds_bucket",
		"sting_trace_events",
		"sting_spans_retained",
		"sting_span_recorded_total",
		"sting_diag_samples_total",
		"sting_diag_stalls_total",
		"sting_diag_key_events_total",
		"sting_diag_recorder_events_total",
		"sting_vm_compiled_forms_total",
		"sting_vm_fallback_forms_total",
		"sting_vm_dispatch_ops_total",
		"sting_build_info",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, `sting_tspace_depth{space="jobs",kind="hash"} 2`) {
		t.Errorf("/metrics depth sample wrong:\n%s", grepLines(body, "sting_tspace_depth"))
	}
	if v := metricValue(t, body, "sting_stm_commits_total"); v < 1 {
		t.Errorf("sting_stm_commits_total = %v after a wire commit, want ≥ 1", v)
	}
	if v := metricValue(t, body, "sting_stm_aborts_total"); v < 1 {
		t.Errorf("sting_stm_aborts_total = %v after an explicit abort, want ≥ 1", v)
	}

	if !strings.Contains(body, `proto="`+strconv.Itoa(remote.ProtocolVersion())+`"`) {
		t.Errorf("sting_build_info missing proto label:\n%s", grepLines(body, "sting_build_info"))
	}

	// Liveness vs readiness: /healthz stays 200 through drains; /readyz
	// follows the drain flag alone, with per-component detail.
	readyz := func() (int, string) {
		t.Helper()
		resp, err := web.Client().Get(web.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		return resp.StatusCode, string(b)
	}
	if code, b := readyz(); code != 200 || !strings.Contains(b, "drain: ok") {
		t.Errorf("/readyz before draining = %d:\n%s\nwant 200 with drain: ok", code, b)
	}
	draining.Store(true)
	if got := get(t, web.URL+"/healthz"); got != "ok\n" {
		t.Errorf("/healthz while draining = %q, want ok (liveness must not track drain)", got)
	}
	if code, b := readyz(); code != 503 || !strings.Contains(b, "drain: draining") {
		t.Errorf("/readyz while draining = %d:\n%s\nwant 503 with drain: draining", code, b)
	}
	draining.Store(false)
	if code, _ := readyz(); code != 200 {
		t.Errorf("/readyz after the drain cleared = %d, want 200", code)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, web.URL+"/debug/trace")), &doc); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/debug/trace has no events despite live traffic")
	}

	resp, err := web.Client().Get(web.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/spans Content-Type = %q, want application/json", ct)
	}
	var dump struct {
		Node  string           `json:"node"`
		Spans []map[string]any `json:"spans"`
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("/debug/spans not valid JSON: %v", err)
	}
	if dump.Node != "test-node" || len(dump.Spans) == 0 {
		t.Errorf("/debug/spans = node %q with %d spans, want test-node with ≥1", dump.Node, len(dump.Spans))
	}

	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, web.URL+"/debug/spans?format=chrome&limit=10")), &chrome); err != nil {
		t.Fatalf("/debug/spans?format=chrome not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("/debug/spans?format=chrome has no events")
	}

	var rep struct {
		Node   string                    `json:"node"`
		Spaces map[string]map[string]any `json:"spaces"`
	}
	if err := json.Unmarshal([]byte(get(t, web.URL+"/debug/diag")), &rep); err != nil {
		t.Fatalf("/debug/diag not valid JSON: %v", err)
	}
	if rep.Node != "test-node" {
		t.Errorf("/debug/diag node = %q, want test-node", rep.Node)
	}
	if _, ok := rep.Spaces["jobs"]; !ok {
		t.Errorf("/debug/diag spaces missing jobs: %+v", rep.Spaces)
	}

	var fdump struct {
		Node   string           `json:"node"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, web.URL+"/debug/diag?dump=1")), &fdump); err != nil {
		t.Fatalf("/debug/diag?dump=1 not valid JSON: %v", err)
	}
	if fdump.Node != "test-node" || len(fdump.Events) == 0 {
		t.Errorf("/debug/diag?dump=1 = node %q with %d events, want test-node with ≥1", fdump.Node, len(fdump.Events))
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}

// metricValue extracts the sample value of an unlabelled counter/gauge
// line ("family 12") from a /metrics body.
func metricValue(t *testing.T, body, family string) float64 {
	t.Helper()
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, family+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(l, family+" "), 64)
			if err != nil {
				t.Fatalf("parse %s sample %q: %v", family, l, err)
			}
			return v
		}
	}
	t.Fatalf("no %s sample in /metrics:\n%s", family, grepLines(body, family))
	return 0
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
