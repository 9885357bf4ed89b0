package core

import (
	"testing"

	"repro/internal/obs"
)

// findSpan returns the first span with the given name, or nil.
func findSpan(spans []*obs.SpanData, name string) *obs.SpanData {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// TestSpanInheritedAcrossFork is the core propagation acceptance: a root
// thread started under a span context opens a thread span, its forked
// child nests under that span, both close at determine, and the scheduler
// transitions appear as span events.
func TestSpanInheritedAcrossFork(t *testing.T) {
	buf := obs.NewSpanRing(256)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	base := obs.OpenSpans()

	m := NewMachine(MachineConfig{Processors: 2})
	defer m.Shutdown()
	vm, err := m.NewVM(VMConfig{VPs: 2})
	if err != nil {
		t.Fatal(err)
	}

	root := obs.StartSpan(obs.SpanContext{}, "test-root", obs.SpanInternal)
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) {
			return []Value{42}, nil
		}, nil, WithName("span-child"))
		return ctx.Value(child)
	}, WithName("span-parent"), WithSpanContext(root.Context()))
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if got := obs.OpenSpans(); got != base {
		t.Fatalf("OpenSpans = %d, want %d (leaked span)", got, base)
	}
	spans := buf.Drain()
	parent := findSpan(spans, "span-parent")
	child := findSpan(spans, "span-child")
	if parent == nil || child == nil {
		t.Fatalf("thread spans missing (got %d spans)", len(spans))
	}
	rc := root.Context()
	if parent.Trace != rc.Trace || child.Trace != rc.Trace {
		t.Fatalf("trace split: root %v, parent %v, child %v",
			rc.Trace, parent.Trace, child.Trace)
	}
	if parent.Parent != rc.Span {
		t.Fatalf("parent.Parent = %v, want root span %v", parent.Parent, rc.Span)
	}
	if child.Parent != parent.Span {
		t.Fatalf("child.Parent = %v, want parent span %v", child.Parent, parent.Span)
	}
	// The child either ran through the scheduler (scheduled/evaluating
	// events) or was stolen inline by the joining parent.
	saw := false
	for _, e := range child.Events {
		switch e.Name {
		case "scheduled", "evaluating", "stolen":
			saw = true
		}
	}
	if !saw {
		t.Fatalf("child span has no scheduler events: %v", child.Events)
	}
}

// TestUntracedThreadsOpenNoSpans: with a sink installed but no span
// context, threads stay untraced — spans engage per-trace, not per-sink.
func TestUntracedThreadsOpenNoSpans(t *testing.T) {
	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)

	m := NewMachine(MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		child := ctx.Fork(func(*Context) ([]Value, error) { return []Value{1}, nil }, nil)
		return ctx.Value(child)
	}, WithName("plain"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Drain(); len(got) != 0 {
		t.Fatalf("untraced run recorded %d spans", len(got))
	}
}

// TestWithSpanScopesContext: Context.WithSpan installs the span for the
// body and restores the previous context afterwards, even on nested use.
func TestWithSpanScopesContext(t *testing.T) {
	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)

	m := NewMachine(MachineConfig{Processors: 1})
	defer m.Shutdown()
	vm, err := m.NewVM(VMConfig{VPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := obs.StartSpan(obs.SpanContext{}, "with-span-root", obs.SpanInternal)
	_, err = vm.Run(func(ctx *Context) ([]Value, error) {
		before := ctx.SpanContext()
		ctx.WithSpan("inner", func(s *obs.Span) {
			if got := ctx.SpanContext(); got != s.Context() {
				t.Errorf("inside WithSpan: ctx = %+v, want %+v", got, s.Context())
			}
		})
		if got := ctx.SpanContext(); got != before {
			t.Errorf("after WithSpan: ctx = %+v, want restored %+v", got, before)
		}
		return nil, nil
	}, WithSpanContext(root.Context()))
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := buf.Drain()
	inner := findSpan(spans, "inner")
	if inner == nil {
		t.Fatalf("inner span not recorded (got %d spans)", len(spans))
	}
	if inner.Trace != root.Context().Trace {
		t.Fatalf("inner trace %v, want %v", inner.Trace, root.Context().Trace)
	}
}
