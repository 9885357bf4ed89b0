package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

func TestSketchTopKeepsHeavyHitters(t *testing.T) {
	s := newSketch(2) // 8 counters
	hot := classKey{arity: 2, sig: 42, keyed: true}
	for i := 0; i < 1000; i++ {
		s.observe(hot, "hot")
		s.observe(classKey{arity: 2, sig: uint64(1000 + i), keyed: true}, i)
	}
	top := s.top(2)
	if len(top) == 0 {
		t.Fatal("empty top")
	}
	if top[0].Key != "hot" {
		t.Fatalf("top key = %q, want hot (top=%v)", top[0].Key, top)
	}
	if top[0].Count < 1000 {
		t.Fatalf("hot count = %d, want >= 1000", top[0].Count)
	}
	if got := top[0].Count - top[0].Err; got > 1000 {
		t.Fatalf("guaranteed count %d exceeds true count", got)
	}
}

func TestSketchUnkeyedClass(t *testing.T) {
	s := newSketch(2)
	s.observe(classKey{arity: 3, keyed: false}, nil)
	top := s.top(1)
	if len(top) != 1 || top[0].Key != "*" || top[0].Arity != 3 {
		t.Fatalf("top = %v", top)
	}
}

// TestRecorderRingAndDump: the flight recorder keeps the newest events and
// its dump carries them, oldest first, with the node and the overflow count
// (the ring itself is TestRing's, in internal/obs).
func TestRecorderRingAndDump(t *testing.T) {
	d := New(Config{Node: "n1"})
	for i := 0; i < recorderCap+2; i++ {
		d.Record("e", "", "", "", uint64(i))
	}
	var buf bytes.Buffer
	if err := d.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Node != "n1" || len(dump.Events) != recorderCap || dump.Dropped != 2 ||
		dump.Events[0].Count != 2 || dump.Events[recorderCap-1].Count != recorderCap+1 {
		t.Fatalf("dump: node %q, %d events, %d dropped", dump.Node, len(dump.Events), dump.Dropped)
	}
}

// waiterFixture feeds the sampler synthetic waiters.
type waiterFixture struct{ infos []tspace.WaiterInfo }

func (f *waiterFixture) WaiterInfos() []tspace.WaiterInfo { return f.infos }

func TestStallOnsetCountsOnce(t *testing.T) {
	fix := &waiterFixture{infos: []tspace.WaiterInfo{{
		Space: "s", Arity: 2, Sig: 7, Key: "k", Seq: 3,
		Since: time.Now().Add(-time.Minute),
	}}}
	d := New(Config{StallSLO: 10 * time.Millisecond, Waiters: []WaiterSource{fix}})
	rep := d.Sample()
	if len(rep.Stalls) != 1 || rep.Stalls[0].Space != "s" || rep.Stalls[0].Key != "k" {
		t.Fatalf("stalls %v", rep.Stalls)
	}
	if rep.Stalls[0].AgeMs < 59_000 {
		t.Fatalf("age %d too low", rep.Stalls[0].AgeMs)
	}
	d.Sample()
	d.Sample()
	if got := d.stallOnsets.Load(); got != 1 {
		t.Fatalf("onsets = %d, want 1 (same waiter across samples)", got)
	}
	// The waiter unparks: stall clears, a clear event is recorded.
	fix.infos = nil
	rep = d.Sample()
	if len(rep.Stalls) != 0 || d.stalledNow.Load() != 0 {
		t.Fatalf("stalls %v after clear", rep.Stalls)
	}
	kinds := eventKinds(d.rec.Tail(d.rec.Cap()))
	if !strings.Contains(kinds, "stall-clear") {
		t.Fatalf("no stall-clear event in %s", kinds)
	}
}

func eventKinds(evs []Event) string {
	var parts []string
	for _, e := range evs {
		parts = append(parts, e.Kind)
	}
	return strings.Join(parts, ",")
}

func TestProfilerHotKeyThroughRealSpace(t *testing.T) {
	vm := testkit.VM(t, 2, 2)
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	d := New(Config{Waiters: []WaiterSource{reg}})
	d.Start()
	defer d.Stop()

	sp, err := reg.Open("orders", tspace.KindHash, tspace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for i := 0; i < 200; i++ {
			if err := sp.Put(ctx, tspace.Tuple{"hot-key", i}); err != nil {
				return err
			}
		}
		for i := 0; i < 50; i++ {
			if err := sp.Put(ctx, tspace.Tuple{fmt.Sprintf("cold-%d", i), i}); err != nil {
				return err
			}
		}
		for i := 0; i < 200; i++ {
			if _, _, err := sp.Get(ctx, tspace.Template{"hot-key", tspace.F("v")}); err != nil {
				return err
			}
		}
		return nil
	})

	rep := d.Sample()
	sr := rep.Spaces["orders"]
	if sr == nil {
		t.Fatalf("no space report; spaces %v", rep.Spaces)
	}
	if len(sr.Puts) > topK {
		t.Fatalf("%d put keys reported, want at most topK=%d", len(sr.Puts), topK)
	}
	if len(sr.Puts) == 0 || sr.Puts[0].Key != "hot-key" {
		t.Fatalf("hot put key not ranked first: %v", sr.Puts)
	}
	if len(sr.Takes) == 0 || sr.Takes[0].Key != "hot-key" {
		t.Fatalf("hot take key not ranked first: %v", sr.Takes)
	}
	if d.prof.puts.Load() != 250 || d.prof.takes.Load() != 200 {
		t.Fatalf("totals puts=%d takes=%d", d.prof.puts.Load(), d.prof.takes.Load())
	}
}

func TestShardEventAndDefault(t *testing.T) {
	d := New(Config{})
	d.Start()
	defer d.Stop()
	if Default() != d {
		t.Fatal("default not installed")
	}
	ShardEvent("10.0.0.1:7000", "orders", tspace.DiagPut)
	ShardEvent("10.0.0.1:7000", "orders", tspace.DiagTake)
	ShardEvent("10.0.0.2:7000", "orders", tspace.DiagConflict)
	RecordEvent("probe-fail", "", "10.0.0.2:7000", "connection refused", 1)

	rep := d.Sample()
	s1 := rep.Shards["10.0.0.1:7000"]
	if s1 == nil || s1.Puts != 1 || s1.Takes != 1 || s1.Spaces["orders"] != 2 {
		t.Fatalf("shard1 %+v", s1)
	}
	if s2 := rep.Shards["10.0.0.2:7000"]; s2 == nil || s2.Conflicts != 1 {
		t.Fatalf("shard2 %+v", s2)
	}
	if !strings.Contains(eventKinds(d.rec.Tail(d.rec.Cap())), "probe-fail") {
		t.Fatal("probe-fail event missing")
	}
}

func TestHandlerReportAndDump(t *testing.T) {
	d := New(Config{Node: "n1"})
	h := Handler{D: d}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag", nil))
	if rr.Code != 200 {
		t.Fatalf("code %d", rr.Code)
	}
	var rep Report
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Node != "n1" {
		t.Fatalf("node %q", rep.Node)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag?dump=1", nil))
	dump, err := DecodeDump(rr.Body)
	if err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if dump.Node != "n1" || len(dump.Events) == 0 {
		t.Fatalf("dump %+v", dump)
	}

	rr = httptest.NewRecorder()
	Handler{}.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag", nil))
	if rr.Code != 503 {
		t.Fatalf("nil diagnoser code %d, want 503", rr.Code)
	}
}

func TestCollectorFamilies(t *testing.T) {
	d := New(Config{})
	d.Sample()
	d.WatchdogStall("test")
	ms := d.Collector().Collect()
	want := map[string]bool{
		"sting_diag_samples_total":          false,
		"sting_diag_stalls_total":           false,
		"sting_diag_stalled_waiters":        false,
		"sting_diag_deadlocks_total":        false,
		"sting_diag_watchdog_stalls_total":  false,
		"sting_diag_key_events_total":       false,
		"sting_diag_wake_misses_total":      false,
		"sting_diag_handoffs_total":         false,
		"sting_diag_recorder_events_total":  false,
		"sting_diag_recorder_dropped_total": false,
		"sting_diag_sample_latency_seconds": false,
	}
	for _, m := range ms {
		want[m.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %s missing", name)
		}
	}
	for _, m := range ms {
		if m.Name == "sting_diag_watchdog_stalls_total" && m.Value != 1 {
			t.Errorf("watchdog stalls = %v, want 1", m.Value)
		}
		if m.Name == "sting_diag_samples_total" && m.Value != 1 {
			t.Errorf("samples = %v, want 1", m.Value)
		}
	}
}
