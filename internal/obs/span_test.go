package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// collect installs a slice sink for the test and returns the accumulator.
func collect(t *testing.T) *[]*SpanData {
	t.Helper()
	var mu sync.Mutex
	var got []*SpanData
	SetSpanSink(func(s *SpanData) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	t.Cleanup(func() { SetSpanSink(nil) })
	return &got
}

func TestSpanLifecycle(t *testing.T) {
	got := collect(t)
	base := OpenSpans()

	root := StartSpan(SpanContext{}, "root", SpanInternal)
	if root == nil {
		t.Fatal("StartSpan returned nil with a sink installed")
	}
	if !root.Context().Valid() {
		t.Fatal("root context invalid")
	}
	root.SetAttr("k", "v")
	child := StartSpan(root.Context(), "child", SpanClient)
	child.Event("hop")
	child.End()
	child.End() // idempotent: must not record twice
	root.End()

	if OpenSpans() != base {
		t.Fatalf("OpenSpans = %d, want %d", OpenSpans(), base)
	}
	if len(*got) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(*got))
	}
	c, r := (*got)[0], (*got)[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("order/name wrong: %q then %q", c.Name, r.Name)
	}
	if c.Trace != r.Trace {
		t.Fatalf("trace split: %v vs %v", c.Trace, r.Trace)
	}
	if c.Parent != r.Span {
		t.Fatalf("child.Parent = %v, want root %v", c.Parent, r.Span)
	}
	if r.Parent != 0 {
		t.Fatalf("root.Parent = %v, want 0", r.Parent)
	}
	if c.Kind != SpanClient || r.Kind != SpanInternal {
		t.Fatalf("kinds = %v/%v", c.Kind, r.Kind)
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{"k", "v"}) {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if len(c.Events) != 1 || c.Events[0].Name != "hop" {
		t.Fatalf("child events = %v", c.Events)
	}
	if c.DurationNanos < 0 {
		t.Fatalf("negative duration %d", c.DurationNanos)
	}
}

func TestStartSpanDisabledPaths(t *testing.T) {
	// No sink: nil span, and every method is nil-safe.
	SetSpanSink(nil)
	s := StartSpan(SpanContext{}, "x", SpanInternal)
	if s != nil {
		t.Fatal("StartSpan != nil without a sink")
	}
	s.SetAttr("a", "b")
	s.Event("e")
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span context valid")
	}
}

// TestSpanBufferAccounting: spans ending into the span ring as the
// installed sink keep the newest ones, and the conservation law a scrape
// depends on, recorded == drained + retained + dropped, holds in the
// ring's stats and in what SpanCollector exports.
func TestSpanBufferAccounting(t *testing.T) {
	ring := NewSpanRing(4)
	SetSpanSink(ring.Record)
	t.Cleanup(func() { SetSpanSink(nil) })
	for i := 0; i < 10; i++ {
		StartSpan(SpanContext{}, "s"+strconv.Itoa(i), SpanInternal).End()
	}
	s := ring.Stats()
	if s.Recorded != 10 || s.Retained != 4 || s.Dropped != 6 {
		t.Fatalf("stats %+v, want recorded 10 retained 4 dropped 6", s)
	}
	drained := ring.Drain()
	if len(drained) != 4 {
		t.Fatalf("Drain returned %d, want 4", len(drained))
	}
	for i, sd := range drained { // s6..s9, in the order they ended
		if want := "s" + strconv.Itoa(6+i); sd.Name != want {
			t.Fatalf("drained span %d = %q, want %q", i, sd.Name, want)
		}
	}
	s = ring.Stats()
	if s.Recorded != s.Drained+s.Retained+s.Dropped || s.Retained != 0 || s.Drained != 4 {
		t.Fatalf("after Drain: %+v", s)
	}
	got := make(map[string]float64)
	for _, m := range (SpanCollector{Ring: ring}).Collect() {
		got[m.Name] = m.Value
	}
	if got["sting_span_recorded_total"] != got["sting_span_drained_total"]+got["sting_spans_retained"]+got["sting_span_dropped_total"] ||
		got["sting_span_recorded_total"] != 10 {
		t.Fatalf("collector breaks conservation: %v", got)
	}
}

// TestSpanBufferConcurrentRecord: spans ended on several goroutines at once
// are all counted, and the ring never holds more than its capacity.
func TestSpanBufferConcurrentRecord(t *testing.T) {
	ring := NewSpanRing(64)
	SetSpanSink(ring.Record)
	t.Cleanup(func() { SetSpanSink(nil) })
	var wg sync.WaitGroup
	const writers, each = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				StartSpan(SpanContext{}, "c", SpanInternal).End()
			}
		}()
	}
	wg.Wait()
	if got := ring.Stats().Recorded; got != writers*each {
		t.Fatalf("Recorded = %d, want %d", got, writers*each)
	}
	drained := ring.Drain()
	if s := ring.Stats(); s.Recorded != s.Drained+s.Retained+s.Dropped {
		t.Fatalf("conservation violated: %+v", s)
	}
	if len(drained) != 64 {
		t.Fatalf("drained %d from a full 64-slot ring", len(drained))
	}
}

func TestSpansJSONRoundTrip(t *testing.T) {
	in := []*SpanData{
		{Trace: TraceID{1, 2}, Span: 3, Parent: 0, Name: "root", Kind: SpanInternal,
			StartNanos: 100, DurationNanos: 50, Attrs: []Attr{{"k", "v"}},
			Events: []SpanEvent{{TimeNanos: 120, Name: "e"}}},
		{Trace: TraceID{1, 2}, Span: 4, Parent: 3, Name: "rpc", Kind: SpanServer,
			StartNanos: 110, DurationNanos: 20},
	}
	var w bytes.Buffer
	if err := WriteSpansJSON(&w, "n1", in); err != nil {
		t.Fatalf("WriteSpansJSON: %v", err)
	}
	node, out, err := DecodeSpansJSON(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("DecodeSpansJSON: %v", err)
	}
	if node != "n1" || len(out) != 2 {
		t.Fatalf("decoded node %q with %d spans", node, len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Trace != b.Trace || a.Span != b.Span || a.Parent != b.Parent ||
			a.Name != b.Name || a.Kind != b.Kind ||
			a.StartNanos != b.StartNanos || a.DurationNanos != b.DurationNanos {
			t.Fatalf("span %d mismatch:\n in %+v\nout %+v", i, a, b)
		}
	}
	if len(out[0].Attrs) != 1 || out[0].Attrs[0] != (Attr{"k", "v"}) {
		t.Fatalf("attrs lost: %v", out[0].Attrs)
	}
	if len(out[0].Events) != 1 || out[0].Events[0].Name != "e" {
		t.Fatalf("events lost: %v", out[0].Events)
	}
}

func TestWriteChromeSpansFlowArrows(t *testing.T) {
	spans := []NodeSpans{
		{Node: "cli", Spans: []*SpanData{
			{Trace: TraceID{9, 9}, Span: 1, Name: "client/get", Kind: SpanClient,
				StartNanos: 1000, DurationNanos: 500},
		}},
		{Node: "srv", Spans: []*SpanData{
			{Trace: TraceID{9, 9}, Span: 2, Parent: 1, Name: "server/get", Kind: SpanServer,
				StartNanos: 1100, DurationNanos: 200},
		}},
	}
	var w bytes.Buffer
	if err := WriteChromeSpans(&w, spans); err != nil {
		t.Fatalf("WriteChromeSpans: %v", err)
	}
	out := w.String()
	// One flow-start on the client span, one flow-finish binding to the
	// same id on the server span: the Perfetto arrow.
	if !strings.Contains(out, `"ph":"s"`) || !strings.Contains(out, `"ph":"f"`) {
		t.Fatalf("flow events missing:\n%s", out)
	}
	if !strings.Contains(out, `"client/get"`) || !strings.Contains(out, `"server/get"`) {
		t.Fatalf("span slices missing:\n%s", out)
	}
}
