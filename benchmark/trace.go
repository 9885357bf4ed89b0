package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// clock is the one process clock every timestamp of a run is read from:
// driver goroutines, the benchmark's own echo/drainer/worker threads and the
// span log all share it, which is what lets a span start on a client
// goroutine and end on a server-side STING thread.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// spanID indexes the tracer's log; noSpan is "no parent" and what a nil or
// full tracer hands out.
type spanID int32

const noSpan spanID = -1

// spanRec is one span {name, start, end, parent, op_id}; lane is the Chrome
// trace row (one per driver or helper thread).
type spanRec struct {
	start, end int64
	op         int64
	parent     spanID
	name       uint16
	lane       uint16
}

// tracer appends spans to a preallocated in-memory log from benchmark code
// only. A nil *tracer is the untraced pass: every method is a no-op, so
// the instrumented call sites cost one nil check.
type tracer struct {
	spans   []spanRec
	next    atomic.Int64
	dropped atomic.Int64
	mapping []byte // the anonymous mapping behind spans; nil when on the heap
}

// traceCap bounds one traced pass: 512Ki spans is 16 MiB of log and still a
// Chrome trace a browser loads.
const traceCap = 1 << 19

// newTracer preallocates the log outside the Go heap. On the heap its 16 MiB
// would be live data, and with the workloads' few-MiB heaps that alone makes
// the collector run several times less often — the traced pass would then
// measure faster than the untraced one. spanRec holds no pointers, so the
// collector never needs to see it.
func newTracer() *tracer {
	t := &tracer{}
	size := traceCap * int(unsafe.Sizeof(spanRec{}))
	m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.spans = make([]spanRec, traceCap)
		return t
	}
	t.mapping = m
	t.spans = unsafe.Slice((*spanRec)(unsafe.Pointer(&m[0])), traceCap)
	return t
}

// release unmaps the log; the tracer must not be used afterwards.
func (t *tracer) release() {
	if t.mapping != nil {
		t.spans = nil
		syscall.Munmap(t.mapping) //nolint:errcheck // nothing to do about a failed unmap
		t.mapping = nil
	}
}

// begin opens a span; slots are reserved with one atomic add, so concurrent
// writers never share a record. A full log drops the span and counts it.
func (t *tracer) begin(name uint16, parent spanID, op int64, lane int) spanID {
	if t == nil {
		return noSpan
	}
	return t.add(name, parent, op, lane, now(), 0)
}

func (t *tracer) end(id spanID) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = now()
}

// add records a span whose ends were read elsewhere (cross-thread paths).
func (t *tracer) add(name uint16, parent spanID, op int64, lane int, start, end int64) spanID {
	if t == nil {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = spanRec{start: start, end: end, op: op, parent: parent, name: name, lane: uint16(lane)}
	return spanID(i)
}

// recorded returns the finished spans of the log.
func (t *tracer) recorded() []spanRec {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durationsUS returns every finished span of the given name in µs.
func (t *tracer) durationsUS(name uint16) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if s.name == name && s.end > s.start {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// medianUS is the median duration of the named span in µs (0 when absent).
func (t *tracer) medianUS(name uint16) float64 { return median(t.durationsUS(name)) }

// selfTime is one row of the self-time table.
type selfTime struct {
	Name    string
	Count   int
	TotalUS float64
	SelfUS  float64
}

// selfTimes aggregates per span name: self time = span − the part of it its
// child spans cover.
func (t *tracer) selfTimes() []selfTime {
	spans := t.recorded()
	childCover := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) && s.end > s.start {
			p := spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				childCover[s.parent] += hi - lo
			}
		}
	}
	agg := map[uint16]*selfTime{}
	for i, s := range spans {
		if s.end <= s.start {
			continue
		}
		a := agg[s.name]
		if a == nil {
			a = &selfTime{Name: spanNames[s.name]}
			agg[s.name] = a
		}
		d := s.end - s.start
		a.Count++
		a.TotalUS += float64(d) / 1e3
		a.SelfUS += float64(max(d-childCover[i], 0)) / 1e3
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// writeChrome writes the log as Chrome trace JSON (complete "X" events, one
// tid per lane), loadable in chrome://tracing and Perfetto.
func (t *tracer) writeChrome(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"dropped":%d},"traceEvents":[`, workload, t.dropped.Load())
	first := true
	for i, s := range t.recorded() {
		if s.end <= s.start {
			continue
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op_id":%d}}`,
			spanNames[s.name], s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Span names, interned so a record stays 32 bytes.
const (
	spOp uint16 = iota
	spFork
	spJoinWait
	spCollect
	spTSPut
	spTSGetPark
	spDeposit
	spDrain
	spTSTask
	spSchemeEval
	spTreeEval
	spClientPut
	spClientGet
	spReqPath
	spEchoPut
	spRespPath
	spStreamEnqueue
	spStreamAcks
	spStreamGetAck
	spStreamDrain
	spKeyedPut
	spKeyedGet
	spFanoutGet
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:            "op",
	spFork:          "core.fork",
	spJoinWait:      "core.join_wait",
	spCollect:       "core.collect_values",
	spTSPut:         "tspace.put",
	spTSGetPark:     "tspace.get_park",
	spDeposit:       "tspace.deposit_burst",
	spDrain:         "tspace.drain_burst",
	spTSTask:        "tspace.task",
	spSchemeEval:    "scheme.eval",
	spTreeEval:      "scheme.tree_eval",
	spClientPut:     "remote.client_put",
	spClientGet:     "remote.client_get",
	spReqPath:       "remote.req_path",
	spEchoPut:       "remote.echo_put",
	spRespPath:      "remote.resp_path",
	spStreamEnqueue: "remote.put_async",
	spStreamAcks:    "remote.wait_acks",
	spStreamGetAck:  "remote.get_ack",
	spStreamDrain:   "stream.drain",
	spKeyedPut:      "cluster.keyed_put",
	spKeyedGet:      "cluster.keyed_get",
	spFanoutGet:     "cluster.fanout_get",
}
