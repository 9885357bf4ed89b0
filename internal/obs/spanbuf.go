package obs

import "sort"

// SpanRing is the ready-made span sink: NewSpanRing(n).Record keeps the
// newest n finished spans. Spans land in the order they end; readers
// (/debug/spans, WriteSpansJSON) order them by start time.
type SpanRing = SyncRing[*SpanData]

// NewSpanRing creates a span ring retaining the newest n spans.
func NewSpanRing(n int) *SpanRing { return NewSyncRing[*SpanData](n) }

// sortSpans orders spans by start time, span id breaking ties.
func sortSpans(spans []*SpanData) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNanos != spans[j].StartNanos {
			return spans[i].StartNanos < spans[j].StartNanos
		}
		return spans[i].Span < spans[j].Span
	})
}

// SpanCollector exposes a span ring's occupancy and overflow accounting,
// plus the process-wide open-span gauge, to the metrics registry.
type SpanCollector struct {
	Ring *SpanRing
}

// Collect implements Collector.
func (c SpanCollector) Collect() []Metric {
	if c.Ring == nil {
		return nil
	}
	return append(c.Ring.Stats().Metrics("span", RingFamilies{
		Retained: "sting_spans_retained",
		Recorded: "sting_span_recorded_total",
		Dropped:  "sting_span_dropped_total",
		Drained:  "sting_span_drained_total",
	}), Gauge("sting_spans_open", "Spans started but not yet ended, process-wide.", float64(OpenSpans())))
}
