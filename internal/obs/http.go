package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// Handler serves the observability endpoints over plain net/http:
//
//	/metrics       Prometheus text exposition of Registry.Gather
//	/healthz       liveness: 200 "ok" while Healthy returns nil, 503 otherwise
//	/readyz        readiness: 200 while every Ready component reports nil,
//	               503 otherwise, with per-component detail in the body
//	/debug/trace   Chrome trace_event JSON of TraceEvents (open in Perfetto)
//	/debug/spans   finished spans: JSON dump (default) or ?format=chrome
//	/debug/pprof/  the runtime profiler, when EnablePprof is set
//
// /debug/trace and /debug/spans honour ?limit=N (the most recent N
// entries), so a long-lived node can be sampled without shipping the whole
// ring; N must be a positive integer — anything else is a 400, never a
// silent default. Zero-value fields degrade gracefully: a nil Registry
// serves an empty exposition, a nil Healthy always reports healthy, a nil
// TraceEvents or Spans makes its endpoint a 404, a nil Diag makes
// /debug/diag a 404, and a nil Ready makes /readyz mirror /healthz
// (liveness is the only signal available).
type Handler struct {
	Registry *Registry
	// Healthy reports liveness — is the process alive and serving at all.
	// Return an error to flip /healthz to 503. Deliberately narrow:
	// draining belongs to readiness, not liveness, so an orchestrator
	// never restarts a process for being busy.
	Healthy func() error
	// Ready reports per-component readiness for /readyz: any non-nil
	// Err flips the endpoint to 503, and every component's state is
	// printed in the body either way.
	Ready func() []ReadyStatus
	// TraceEvents supplies the trace-ring snapshot for /debug/trace.
	TraceEvents func() []TraceEvent
	// Spans supplies the finished-span snapshot for /debug/spans.
	Spans func() []*SpanData
	// Node names this process in span dumps (default "sting").
	Node string
	// Diag, when set, serves the runtime-diagnosis report under
	// /debug/diag (see internal/diag). Opaque here to keep obs
	// dependency-free.
	Diag http.Handler
	// EnablePprof exposes net/http/pprof under /debug/pprof/. Off by
	// default: the profiler is a diagnostic surface, not a metric one.
	EnablePprof bool
}

// ServeHTTP implements http.Handler, routing the endpoints.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/metrics":
		h.serveMetrics(w)
	case r.URL.Path == "/healthz":
		h.serveHealth(w)
	case r.URL.Path == "/readyz":
		h.serveReady(w)
	case r.URL.Path == "/debug/trace":
		h.serveTrace(w, r)
	case r.URL.Path == "/debug/spans":
		h.serveSpans(w, r)
	case r.URL.Path == "/debug/diag":
		if h.Diag == nil {
			http.Error(w, "diagnosis not enabled", http.StatusNotFound)
			return
		}
		h.Diag.ServeHTTP(w, r)
	case strings.HasPrefix(r.URL.Path, "/debug/pprof/"):
		if !h.EnablePprof {
			http.NotFound(w, r)
			return
		}
		h.servePprof(w, r)
	case r.URL.Path == "/":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "sting observability\n/metrics\n/healthz\n/readyz\n/debug/trace\n/debug/spans\n")
		if h.Diag != nil {
			fmt.Fprint(w, "/debug/diag\n")
		}
		if h.EnablePprof {
			fmt.Fprint(w, "/debug/pprof/\n")
		}
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if h.Registry == nil {
		return
	}
	_ = WritePrometheus(w, h.Registry.Gather())
}

func (h *Handler) serveHealth(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.Healthy != nil {
		if err := h.Healthy(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
	}
	fmt.Fprint(w, "ok\n")
}

// ReadyStatus is one readiness component's report: a name ("drain", …)
// and its current error, nil when the component is ready.
type ReadyStatus struct {
	Component string
	Err       error
}

func (h *Handler) serveReady(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.Ready == nil {
		// No readiness components configured: readiness degrades to
		// liveness so probes pointed here are never wrong, just coarse.
		h.serveHealth(w)
		return
	}
	statuses := h.Ready()
	ready := true
	for _, s := range statuses {
		if s.Err != nil {
			ready = false
		}
	}
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "unready\n")
	} else {
		fmt.Fprint(w, "ready\n")
	}
	for _, s := range statuses {
		if s.Err != nil {
			fmt.Fprintf(w, "%s: %v\n", s.Component, s.Err)
		} else {
			fmt.Fprintf(w, "%s: ok\n", s.Component)
		}
	}
}

// parseLimit reads ?limit=N. Absence means unlimited (0); a present
// value must be a positive integer — non-numeric or ≤ 0 is an error,
// which the endpoints turn into a 400 rather than silently serving the
// whole ring.
func parseLimit(r *http.Request) (int, error) {
	vals, ok := r.URL.Query()["limit"]
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(vals[0])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid limit %q: want a positive integer", vals[0])
	}
	return n, nil
}

func (h *Handler) serveTrace(w http.ResponseWriter, r *http.Request) {
	if h.TraceEvents == nil {
		http.Error(w, "tracing not enabled", http.StatusNotFound)
		return
	}
	limit, err := parseLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	events := h.TraceEvents()
	if limit > 0 && len(events) > limit {
		events = events[len(events)-limit:]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = WriteChromeTrace(w, events)
}

func (h *Handler) serveSpans(w http.ResponseWriter, r *http.Request) {
	if h.Spans == nil {
		http.Error(w, "span tracing not enabled", http.StatusNotFound)
		return
	}
	limit, err := parseLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spans := h.Spans()
	sortSpans(spans)
	if limit > 0 && len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	node := h.Node
	if node == "" {
		node = "sting"
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = WriteChromeSpans(w, []NodeSpans{{Node: node, Spans: spans}})
		return
	}
	_ = WriteSpansJSON(w, node, spans)
}

func (h *Handler) servePprof(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r) // named profiles (heap, goroutine, …) and the index
	}
}
