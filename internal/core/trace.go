package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceKind classifies substrate events for the monitoring facilities the
// paper's programming-environment story calls for (debugging, profiling,
// observing the dynamic unfolding of computations).
type TraceKind int

// Trace event kinds.
const (
	TraceCreate TraceKind = iota
	TraceSchedule
	TraceDispatch
	TraceSteal
	TraceBlock
	TraceWake
	TracePreempt
	TraceYield
	TraceDetermine
	TraceTerminateReq
)

func (k TraceKind) String() string {
	switch k {
	case TraceCreate:
		return "create"
	case TraceSchedule:
		return "schedule"
	case TraceDispatch:
		return "dispatch"
	case TraceSteal:
		return "steal"
	case TraceBlock:
		return "block"
	case TraceWake:
		return "wake"
	case TracePreempt:
		return "preempt"
	case TraceYield:
		return "yield"
	case TraceDetermine:
		return "determine"
	case TraceTerminateReq:
		return "terminate-request"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one substrate occurrence.
type TraceEvent struct {
	At     time.Time
	Kind   TraceKind
	Thread uint64 // thread id, 0 when not applicable
	VP     int    // vp index, -1 when not applicable
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%s thread=%d vp=%d", e.Kind, e.Thread, e.VP)
}

// Tracer receives events; it runs on the emitting goroutine and must be
// brief and thread-safe.
type Tracer func(TraceEvent)

// traceHook is the machine-wide tracer; nil (the default) costs one atomic
// pointer load per event site.
var traceHook atomic.Pointer[Tracer]

// SetTracer installs the machine-wide tracer; nil disables tracing.
func SetTracer(t Tracer) {
	if t == nil {
		traceHook.Store(nil)
		return
	}
	traceHook.Store(&t)
}

// emit reports an event to the installed tracer.
func emit(kind TraceKind, thread uint64, vp int) {
	if h := traceHook.Load(); h != nil {
		(*h)(TraceEvent{At: time.Now(), Kind: kind, Thread: thread, VP: vp})
	}
}

func vpIndexOf(vp *VP) int {
	if vp == nil {
		return -1
	}
	return vp.index
}

// TraceRing is the ready-made Tracer: NewTraceRing(n).Record keeps the
// newest n events for post-mortem inspection, with the obs.Ring overflow
// accounting.
type TraceRing = obs.SyncRing[TraceEvent]

// NewTraceRing creates a trace ring holding the newest n events.
func NewTraceRing(n int) *TraceRing { return obs.NewSyncRing[TraceEvent](n) }
