package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the substrate's causal-tracing model: spans with 128-bit
// trace identity that travel with a computation across forked threads, the
// wire protocol, and cluster fan-out, so "where did this request spend its
// time, across every shard it touched?" has an answer. Like the metrics
// model it imports nothing from the rest of the repository; core, remote,
// and cluster all thread SpanContext values through without cycles.

// TraceID identifies one end-to-end trace: 128 bits so independently
// started traces on different nodes never collide.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the id is the absent value.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// SpanID identifies one span within a trace.
type SpanID uint64

func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// SpanKind classifies a span's position relative to the wire.
type SpanKind int

// Span kinds.
const (
	SpanInternal SpanKind = iota // in-process work (thread evaluation, fan-out branches)
	SpanClient                   // the requesting half of a wire operation
	SpanServer                   // the serving half of a wire operation
)

func (k SpanKind) String() string {
	switch k {
	case SpanInternal:
		return "internal"
	case SpanClient:
		return "client"
	case SpanServer:
		return "server"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// ParseSpanKind inverts SpanKind.String (for dump decoding); unknown
// strings fall back to internal.
func ParseSpanKind(s string) SpanKind {
	switch s {
	case "client":
		return SpanClient
	case "server":
		return SpanServer
	default:
		return SpanInternal
	}
}

// SpanContext is the propagated part of a span: what a forked thread
// inherits alongside its fluid environment, and what the wire extension
// carries. The zero value means "no trace active" and costs one comparison
// to test.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && sc.Span != 0 }

// Attr is one bounded key=value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is one timestamped point annotation within a span (scheduler
// transitions, cancellations, failover hops).
type SpanEvent struct {
	TimeNanos int64  `json:"time_ns"`
	Name      string `json:"name"`
}

// Bounds on per-span annotations, so a hot loop annotating a span cannot
// grow it without limit; overflow is counted, not silently dropped.
const (
	maxSpanAttrs  = 8
	maxSpanEvents = 16
)

// SpanData is one finished span: the immutable record a Span emits to the
// sink at End. Everything a collector or exporter touches is this type —
// live Spans never escape the thread mutating them.
type SpanData struct {
	Trace         TraceID
	Span          SpanID
	Parent        SpanID // 0 for trace roots
	Name          string
	Kind          SpanKind
	StartNanos    int64
	DurationNanos int64
	Attrs         []Attr
	Events        []SpanEvent
	EventsDropped int // annotations beyond maxSpanEvents
}

// SpanSink receives finished spans; it runs on the ending goroutine and
// must be brief and thread-safe (SpanRing.Record qualifies).
type SpanSink func(*SpanData)

// spanSink is the process-wide sink; nil (the default) makes StartSpan
// return nil, so untraced programs pay one atomic load per site.
var spanSink atomic.Pointer[SpanSink]

// SetSpanSink installs the process-wide span sink; nil disables spans.
func SetSpanSink(s SpanSink) {
	if s == nil {
		spanSink.Store(nil)
		return
	}
	spanSink.Store(&s)
}

// CurrentSpanSink returns the installed sink (nil when spans are off), so
// a caller installing a temporary sink can restore the previous one.
func CurrentSpanSink() SpanSink {
	if p := spanSink.Load(); p != nil {
		return *p
	}
	return nil
}

// DisableSpans is the span-overhead ablation switch (the analogue of
// ServerConfig.DisableMetrics): while true, StartSpan returns nil even
// with a sink installed, so every annotation site degrades to a nil check.
var DisableSpans atomic.Bool

// openSpans counts started-but-unended spans; tests assert it returns to
// its starting value to prove no branch leaks an open span.
var openSpans atomic.Int64

// OpenSpans reports the number of spans started but not yet ended.
func OpenSpans() int64 { return openSpans.Load() }

// Span is a live, in-progress span. It is mutex-guarded so annotations
// from the owning thread and a racing waker never tear; every method is
// nil-safe, letting call sites stay unconditional.
type Span struct {
	mu    sync.Mutex
	data  SpanData
	ended bool
	sink  SpanSink
}

// StartSpan opens a span under parent (a fresh trace when parent is the
// zero context). It returns nil — on which every method is a no-op — when
// no sink is installed or DisableSpans is set, so tracing costs one atomic
// load when off.
func StartSpan(parent SpanContext, name string, kind SpanKind) *Span {
	return StartSpanAt(parent, name, kind, time.Now().UnixNano())
}

// StartSpanAt is StartSpan with an explicit start time, for spans whose
// logical start precedes their creation (a server span measured from frame
// arrival, park time included).
func StartSpanAt(parent SpanContext, name string, kind SpanKind, startNanos int64) *Span {
	h := spanSink.Load()
	if h == nil || DisableSpans.Load() {
		return nil
	}
	s := &Span{
		data: SpanData{
			Span:       SpanID(nextID()),
			Name:       name,
			Kind:       kind,
			StartNanos: startNanos,
		},
		sink: *h,
	}
	if parent.Valid() {
		s.data.Trace = parent.Trace
		s.data.Parent = parent.Span
	} else {
		s.data.Trace = NewTraceID()
	}
	openSpans.Add(1)
	return s
}

// Context returns the propagation context naming this span as parent; the
// zero context on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.data.Trace, Span: s.data.Span}
}

// SetAttr annotates the span (bounded; a repeated key overwrites). No-op
// on nil or ended spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.data.Attrs {
		if s.data.Attrs[i].Key == key {
			s.data.Attrs[i].Value = value
			return
		}
	}
	if len(s.data.Attrs) < maxSpanAttrs {
		s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	}
}

// Event records a timestamped point annotation (bounded; overflow counts
// into EventsDropped). No-op on nil or ended spans.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if len(s.data.Events) >= maxSpanEvents {
		s.data.EventsDropped++
		return
	}
	s.data.Events = append(s.data.Events, SpanEvent{TimeNanos: now, Name: name})
}

// End closes the span and emits its record to the sink. Idempotent; no-op
// on nil spans. Annotations after End are dropped, so a racing waker
// cannot mutate an emitted record.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationNanos = time.Now().UnixNano() - s.data.StartNanos
	rec := s.data
	sink := s.sink
	s.mu.Unlock()
	openSpans.Add(-1)
	sink(&rec)
}

// id generation ------------------------------------------------------------
//
// splitmix64 over an atomic counter: collision-free within a process,
// seeded by wall clock so concurrently booted nodes diverge, and free of
// crypto/rand (no syscall per span).

var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ 0x9e3779b97f4a7c15)
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 means "absent" everywhere; never mint it
	}
	return x
}

// NewTraceID mints a fresh 128-bit trace id.
func NewTraceID() TraceID { return TraceID{Hi: nextID(), Lo: nextID()} }
