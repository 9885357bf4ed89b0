package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span exposition: a JSON dump format (what /debug/spans serves and
// `stingd -trace-out` writes on drain) and a Chrome trace_event rendering
// with cross-node flow arrows — the client half of a wire operation emits
// a flow start (ph "s") keyed by its span id, the server half emits the
// matching finish (ph "f") keyed by its parent id, so Perfetto draws the
// wire hop as an arrow between the two process tracks. scripts/tracecat
// merges several nodes' dumps through the same renderer.

// spanJSON is one span in the dump format; ids travel as hex strings
// because JSON numbers cannot hold 64 bits faithfully.
type spanJSON struct {
	Trace         string      `json:"trace"`
	Span          string      `json:"span"`
	Parent        string      `json:"parent,omitempty"`
	Name          string      `json:"name"`
	Kind          string      `json:"kind"`
	StartNanos    int64       `json:"start_ns"`
	DurationNanos int64       `json:"dur_ns"`
	Attrs         []Attr      `json:"attrs,omitempty"`
	Events        []SpanEvent `json:"events,omitempty"`
	EventsDropped int         `json:"events_dropped,omitempty"`
}

// spanDump is the dump envelope: which node produced the spans, then the
// spans themselves.
type spanDump struct {
	Node  string     `json:"node"`
	Spans []spanJSON `json:"spans"`
}

// WriteSpansJSON writes the span dump format for one node, ordering spans
// (in place) by start time.
func WriteSpansJSON(w io.Writer, node string, spans []*SpanData) error {
	sortSpans(spans)
	d := spanDump{Node: node, Spans: make([]spanJSON, len(spans))}
	for i, sd := range spans {
		j := spanJSON{
			Trace:         sd.Trace.String(),
			Span:          sd.Span.String(),
			Name:          sd.Name,
			Kind:          sd.Kind.String(),
			StartNanos:    sd.StartNanos,
			DurationNanos: sd.DurationNanos,
			Attrs:         sd.Attrs,
			Events:        sd.Events,
			EventsDropped: sd.EventsDropped,
		}
		if sd.Parent != 0 {
			j.Parent = sd.Parent.String()
		}
		d.Spans[i] = j
	}
	return json.NewEncoder(w).Encode(d)
}

// DecodeSpansJSON inverts WriteSpansJSON (scripts/tracecat reads per-node
// dumps with it).
func DecodeSpansJSON(r io.Reader) (node string, spans []*SpanData, err error) {
	var d spanDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return "", nil, err
	}
	spans = make([]*SpanData, len(d.Spans))
	for i, j := range d.Spans {
		sd := &SpanData{
			Name:          j.Name,
			Kind:          ParseSpanKind(j.Kind),
			StartNanos:    j.StartNanos,
			DurationNanos: j.DurationNanos,
			Attrs:         j.Attrs,
			Events:        j.Events,
			EventsDropped: j.EventsDropped,
		}
		if sd.Trace, err = parseTraceID(j.Trace); err != nil {
			return "", nil, fmt.Errorf("span %d: %w", i, err)
		}
		if sd.Span, err = parseSpanID(j.Span); err != nil {
			return "", nil, fmt.Errorf("span %d: %w", i, err)
		}
		if j.Parent != "" {
			if sd.Parent, err = parseSpanID(j.Parent); err != nil {
				return "", nil, fmt.Errorf("span %d: %w", i, err)
			}
		}
		spans[i] = sd
	}
	return d.Node, spans, nil
}

func parseTraceID(s string) (TraceID, error) {
	if len(s) != 32 {
		return TraceID{}, fmt.Errorf("trace id %q is not 32 hex digits", s)
	}
	var id TraceID
	if _, err := fmt.Sscanf(s[:16], "%016x", &id.Hi); err != nil {
		return TraceID{}, fmt.Errorf("trace id %q: %v", s, err)
	}
	if _, err := fmt.Sscanf(s[16:], "%016x", &id.Lo); err != nil {
		return TraceID{}, fmt.Errorf("trace id %q: %v", s, err)
	}
	return id, nil
}

func parseSpanID(s string) (SpanID, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%016x", &v); err != nil {
		return 0, fmt.Errorf("span id %q: %v", s, err)
	}
	return SpanID(v), nil
}

// NodeSpans pairs one node's name with its finished spans, for the merged
// multi-node rendering.
type NodeSpans struct {
	Node  string
	Spans []*SpanData
}

// WriteChromeSpans renders one or more nodes' spans as Chrome trace_event
// JSON: one Perfetto process per node, one track per trace on that node,
// each span a duration slice carrying its ids and attrs, span events as
// instants, and flow arrows binding the client and server halves of every
// wire hop.
func WriteChromeSpans(w io.Writer, nodes []NodeSpans) error {
	var t0 int64
	first := true
	for _, ns := range nodes {
		for _, sd := range ns.Spans {
			if first || sd.StartNanos < t0 {
				t0 = sd.StartNanos
				first = false
			}
		}
	}
	micros := func(ns int64) float64 { return float64(ns-t0) / 1e3 }

	var out []chromeEvent
	meta := []chromeEvent{}
	for pidx, ns := range nodes {
		pid := pidx + 1
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": ns.Node},
		})
		// One track per trace, ordered by each trace's first span so the
		// layout is deterministic.
		tids := make(map[TraceID]int)
		order := make([]*SpanData, len(ns.Spans))
		copy(order, ns.Spans)
		sort.Slice(order, func(i, j int) bool { return order[i].StartNanos < order[j].StartNanos })
		for _, sd := range order {
			if _, ok := tids[sd.Trace]; !ok {
				tid := len(tids) + 1
				tids[sd.Trace] = tid
				meta = append(meta, chromeEvent{
					Name: "thread_name", Ph: "M", PID: pid, TID: tid,
					Args: map[string]any{"name": "trace " + sd.Trace.String()[:8]},
				})
			}
		}
		for _, sd := range order {
			tid := tids[sd.Trace]
			args := map[string]any{
				"trace":  sd.Trace.String(),
				"span":   sd.Span.String(),
				"parent": sd.Parent.String(),
				"kind":   sd.Kind.String(),
			}
			for _, a := range sd.Attrs {
				args["attr."+a.Key] = a.Value
			}
			out = append(out, chromeEvent{
				Name: sd.Name,
				Ph:   "X",
				TS:   micros(sd.StartNanos),
				Dur:  float64(sd.DurationNanos) / 1e3,
				PID:  pid,
				TID:  tid,
				Args: args,
			})
			for _, ev := range sd.Events {
				out = append(out, chromeEvent{
					Name: ev.Name,
					Ph:   "i",
					TS:   micros(ev.TimeNanos),
					PID:  pid,
					TID:  tid,
					Args: map[string]any{"span": sd.Span.String(), "s": "t"},
				})
			}
			// The wire hop: a client span starts a flow under its own id;
			// the server span it propagated to finishes the flow under its
			// parent id — the same value, so Perfetto binds the arrow.
			switch {
			case sd.Kind == SpanClient:
				out = append(out, chromeEvent{
					Name: "wire", Ph: "s", TS: micros(sd.StartNanos),
					PID: pid, TID: tid, ID: sd.Span.String(), Cat: "wire",
				})
			case sd.Kind == SpanServer && sd.Parent != 0:
				out = append(out, chromeEvent{
					Name: "wire", Ph: "f", BP: "e", TS: micros(sd.StartNanos),
					PID: pid, TID: tid, ID: sd.Parent.String(), Cat: "wire",
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"})
}
