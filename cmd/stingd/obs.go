package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/scheme"
	"repro/internal/stm"
	"repro/internal/tspace"
	stingvm "repro/internal/vm"
)

// obsTraceCap sizes the daemon's trace ring: at ~5 events per request a
// 64Ki ring retains the last ~13k requests' worth of scheduling history.
const obsTraceCap = 65536

// obsSpanCap sizes the daemon's span ring: each traced wire op costs a
// couple of spans, so 16Ki retains the last ~8k traced requests.
const obsSpanCap = 16384

// obsWiring carries buildObsHandler's optional surfaces: span ring and
// diagnoser may be nil (the feature is off).
type obsWiring struct {
	trace    *core.TraceRing
	spans    *obs.SpanRing
	d        *diag.Diagnoser
	node     string
	pprof    bool
	draining *atomic.Bool
}

// buildObsHandler assembles the daemon's observability surface: one obs
// registry fed by the VM, the space registry, the fabric server, the
// trace ring, the span ring and the runtime diagnoser, behind the
// /metrics, /healthz, /readyz, /debug/trace, /debug/spans, /debug/diag
// handler. Factored out of runServer so tests can drive it without
// sockets. Windows and SLOs over these metrics are stingtop's job.
//
// Liveness vs readiness: /healthz answers only "is the process alive and
// serving HTTP" — it stays 200 through drains, so an orchestrator never
// kills a node for being busy. /readyz is the load-bearing signal: 503
// while draining.
func buildObsHandler(vm *core.VM, reg *tspace.Registry, srv *remote.Server, w obsWiring) http.Handler {
	r := obs.NewRegistry()
	r.Register("core", core.VMCollector{VM: vm})
	r.Register("tspace", tspace.RegistryCollector{Registry: reg})
	r.Register("remote", remote.ServerCollector{Server: srv})
	r.Register("stm", stm.NewCollector())
	r.Register("vm", stingvm.NewCollector())
	r.Register("trace", core.TraceCollector{Ring: w.trace})
	r.Register("build", obs.BuildInfo(
		obs.L("proto", strconv.Itoa(remote.ProtocolVersion())),
		obs.L("engine", scheme.DefaultEngineName()),
		obs.L("node", w.node)))
	h := &obs.Handler{
		Registry: r,
		TraceEvents: func() []obs.TraceEvent {
			return core.ObsTraceEvents(w.trace.Tail(w.trace.Cap()))
		},
		Node:        w.node,
		EnablePprof: w.pprof,
	}
	if w.spans != nil {
		r.Register("spans", obs.SpanCollector{Ring: w.spans})
		h.Spans = func() []*obs.SpanData { return w.spans.Tail(w.spans.Cap()) }
	}
	if w.d != nil {
		r.Register("diag", w.d.Collector())
		h.Diag = diag.Handler{D: w.d}
	}
	h.Ready = func() []obs.ReadyStatus {
		s := obs.ReadyStatus{Component: "drain"}
		if w.draining.Load() {
			s.Err = errors.New("draining")
		}
		return []obs.ReadyStatus{s}
	}
	return h
}

// writeSpanDump drains the span ring to path in the JSON dump format
// (scripts/tracecat merges several nodes' dumps), returning the span count.
func writeSpanDump(path, node string, spans *obs.SpanRing) (int, error) {
	drained := spans.Drain()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := obs.WriteSpansJSON(f, node, drained); err != nil {
		f.Close() //nolint:errcheck
		return 0, err
	}
	return len(drained), f.Close()
}

// serveObs binds addr and serves h on a background goroutine, returning
// the bound address (so -http :0 works and the smoke test can find it).
func serveObs(addr string, h http.Handler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, h) //nolint:errcheck
	return ln.Addr(), nil
}
