package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// TestFanoutSpansOnePerBranchAllClosed is the cluster-tracing acceptance:
// a traced wildcard Get fans out with one branch span per shard, the
// losing branch (CANCELed after the winner decides) still closes its
// span, and nothing stays open afterwards.
func TestFanoutSpansOnePerBranchAllClosed(t *testing.T) {
	buf := obs.NewSpanRing(1024)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	base := obs.OpenSpans()

	tc := startTestCluster(t, 2)
	c := openTest(t, tc, Config{})
	sp := c.Space("work")
	if err := sp.Put(nil, tspace.Tuple{7}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	vm := testkit.VM(t, 2, 2)
	root := obs.StartSpan(obs.SpanContext{}, "fanout-test-root", obs.SpanInternal)
	th := vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		// Wildcard: no keyable first field, so the Get fans out to both
		// shards. One finds the tuple; the other parks until CANCELed.
		_, _, err := sp.Get(ctx, tspace.Template{tspace.F("k")})
		return nil, err
	}, core.WithName("fan-client"), core.WithSpanContext(root.Context()))
	if _, err := core.JoinThread(th); err != nil {
		t.Fatalf("fan-out Get: %v", err)
	}
	c.Quiesce() // losing branches drain (CANCEL round trips) before counting
	root.End()
	for _, srv := range tc.servers {
		srv.Shutdown() // waits for in-flight requests, so server spans are ended
	}

	if got := obs.OpenSpans(); got != base {
		t.Fatalf("OpenSpans = %d, want %d (a branch leaked its span)", got, base)
	}
	spans := buf.Drain()
	rc := root.Context()
	var fanouts, branches []*obs.SpanData
	for _, s := range spans {
		if s.Trace != rc.Trace {
			t.Fatalf("span %q on trace %v, want %v", s.Name, s.Trace, rc.Trace)
		}
		switch s.Name {
		case "cluster/fanout":
			fanouts = append(fanouts, s)
		case "cluster/branch":
			branches = append(branches, s)
		}
	}
	if len(fanouts) != 1 {
		t.Fatalf("fanout spans = %d, want 1", len(fanouts))
	}
	if len(branches) != len(tc.servers) {
		t.Fatalf("branch spans = %d, want one per shard (%d)", len(branches), len(tc.servers))
	}
	won, canceled := 0, 0
	for _, b := range branches {
		if b.Parent != fanouts[0].Span {
			t.Fatalf("branch parent %v, want fanout span %v", b.Parent, fanouts[0].Span)
		}
		for _, e := range b.Events {
			switch e.Name {
			case "won":
				won++
			case "canceled":
				canceled++
			}
		}
	}
	if won != 1 {
		t.Fatalf("won events = %d, want exactly 1", won)
	}
	if canceled != len(tc.servers)-1 {
		t.Fatalf("canceled events = %d, want %d", canceled, len(tc.servers)-1)
	}
}

// TestUntracedFanoutMintsNoTrace: a caller without a span context must
// not cause the cluster layer to start a fresh trace root.
func TestUntracedFanoutMintsNoTrace(t *testing.T) {
	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)

	tc := startTestCluster(t, 2)
	c := openTest(t, tc, Config{})
	sp := c.Space("work")
	if err := sp.Put(nil, tspace.Tuple{3}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := sp.Get(nil, tspace.Template{tspace.F("k")}); err != nil {
		t.Fatalf("Get: %v", err)
	}
	c.Quiesce()
	if got := buf.Drain(); len(got) != 0 {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name
		}
		t.Fatalf("untraced fan-out recorded spans: %v", names)
	}
}
