package core

import (
	"sync"
	"testing"
)

func TestTracerCapturesLifecycle(t *testing.T) {
	ring := NewTraceRing(4096)
	SetTracer(ring.Record)
	defer SetTracer(nil)

	vm := testVM(t, 2, 2)
	_, err := vm.Run(func(ctx *Context) ([]Value, error) {
		lazy := ctx.CreateThread(func(*Context) ([]Value, error) { return one(1), nil })
		ctx.Wait(lazy) // steal
		forked := ctx.Fork(func(c *Context) ([]Value, error) {
			c.Yield()
			return one(2), nil
		}, nil, WithStealable(false))
		ctx.Wait(forked) // block + wake
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[TraceKind]int)
	for _, e := range ring.Drain() {
		counts[e.Kind]++
	}
	for _, kind := range []TraceKind{
		TraceCreate, TraceSchedule, TraceDispatch, TraceSteal,
		TraceYield, TraceDetermine,
	} {
		if counts[kind] == 0 {
			t.Errorf("no %v events captured (counts %v)", kind, counts)
		}
	}
}

// TestTraceBufferRing: events emitted through the installed tracer land in
// the trace ring, which keeps the newest ones oldest-first.
func TestTraceBufferRing(t *testing.T) {
	ring := NewTraceRing(4)
	SetTracer(ring.Record)
	defer SetTracer(nil)
	for i := 0; i < 10; i++ {
		emit(TraceYield, uint64(i), -1)
	}
	ev := ring.Tail(ring.Cap())
	if len(ev) != 4 {
		t.Fatalf("len = %d", len(ev))
	}
	for i, e := range ev { // threads 6, 7, 8, 9
		if e.Thread != uint64(6+i) || e.Kind != TraceYield || e.At.IsZero() || (i > 0 && e.At.Before(ev[i-1].At)) {
			t.Fatalf("events %v", ev)
		}
	}
}

// TestTraceBufferOverflowAccounting: events emitted through the installed
// tracer overflow the trace ring oldest-first, Drain keeps the totals, and
// TraceCollector exports the same accounting.
func TestTraceBufferOverflowAccounting(t *testing.T) {
	const n = 64
	ring := NewTraceRing(n)
	SetTracer(ring.Record)
	defer SetTracer(nil)
	for i := 0; i < 2*n; i++ {
		emit(TraceYield, uint64(i), -1)
	}
	s := ring.Stats()
	if s.Recorded != 2*n || s.Dropped != n || s.Retained != n {
		t.Fatalf("stats %+v, want recorded %d dropped %d retained %d", s, 2*n, n, n)
	}
	// The survivors are exactly the newest n, oldest first.
	for i, e := range ring.Tail(n) {
		if e.Thread != uint64(n+i) {
			t.Fatalf("event %d thread = %d, want %d", i, e.Thread, n+i)
		}
	}
	// Drain empties the ring but the cumulative totals survive.
	if got := len(ring.Drain()); got != n {
		t.Fatalf("Drain returned %d events, want %d", got, n)
	}
	if s := ring.Stats(); s.Retained != 0 || s.Recorded != 2*n || s.Dropped != n || s.Drained != n {
		t.Fatalf("stats after Drain %+v", s)
	}
	// Refill past capacity: drops count on from the earlier ones.
	for i := 0; i < n+5; i++ {
		emit(TraceYield, uint64(i), -1)
	}
	if got := ring.Stats().Dropped; got != n+5 {
		t.Fatalf("Dropped after refill = %d, want %d", got, n+5)
	}
	want := map[string]float64{
		"sting_trace_events":         n,
		"sting_trace_recorded_total": 3*n + 5,
		"sting_trace_dropped_total":  n + 5,
	}
	ms := TraceCollector{Ring: ring}.Collect()
	if len(ms) != len(want) {
		t.Fatalf("collector exported %d samples, want %d: %+v", len(ms), len(want), ms)
	}
	for _, m := range ms {
		if v, ok := want[m.Name]; !ok || m.Value != v {
			t.Fatalf("collector sample %s = %v, want %v", m.Name, m.Value, want[m.Name])
		}
	}
}

// TestTraceBufferConcurrentEmitDrain has several goroutines emit through
// the installed tracer while a drainer races them, then checks that no
// event is torn, each emitter's events drain in order, and every emitted
// event is drained exactly once or counted dropped.
func TestTraceBufferConcurrentEmitDrain(t *testing.T) {
	const writers, events = 8, 4000
	ring := NewTraceRing(256)
	SetTracer(ring.Record)
	defer SetTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < events; seq++ {
				// Kind and VP are derived from the thread payload, so a
				// torn event shows as fields that disagree.
				emit(TraceKind(seq%10), uint64(w)<<32|uint64(seq), w)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeq := make([]int, writers) // highest seq drained per writer, -1 none
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var drained uint64
	check := func(batch []TraceEvent) {
		for _, e := range batch {
			w := int(e.Thread >> 32)
			seq := int(e.Thread & 0xffffffff)
			if w < 0 || w >= writers {
				t.Fatalf("torn event: writer %d out of range (%+v)", w, e)
			}
			if e.VP != w || e.Kind != TraceKind(seq%10) || e.At.IsZero() {
				t.Fatalf("torn event: fields disagree (%+v, want vp=%d kind=%d)", e, w, seq%10)
			}
			if seq <= lastSeq[w] {
				t.Fatalf("writer %d seq %d drained after %d: order violated", w, seq, lastSeq[w])
			}
			lastSeq[w] = seq
		}
		drained += uint64(len(batch))
	}
	for {
		select {
		case <-done:
			check(ring.Drain()) // final sweep after all writers stopped
			s := ring.Stats()
			if want := uint64(writers * events); s.Recorded != want || drained+s.Dropped != want || s.Drained != drained {
				t.Fatalf("accounting broken: stats %+v, drained %d, emitted %d", s, drained, want)
			}
			return
		default:
			check(ring.Drain())
		}
	}
}

func TestTracerDisabledIsDefault(t *testing.T) {
	// With no tracer the emit sites must be inert (this is implicitly a
	// benchmark-safety check: nil hook, no events, no panic).
	SetTracer(nil)
	vm := testVM(t, 1, 1)
	if _, err := vm.Run(func(ctx *Context) ([]Value, error) {
		ctx.Yield()
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceCreate; k <= TraceTerminateReq; k++ {
		if s := k.String(); s == "" || s[0] == 'T' {
			t.Errorf("kind %d stringer = %q", int(k), s)
		}
	}
}
