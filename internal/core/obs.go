package core

import (
	"strconv"

	"repro/internal/obs"
)

// VMCollector exposes one virtual machine's scheduler state to the obs
// registry: per-VP dispatch/steal/preemption/TCB-cache counters, run-queue
// depths (when the VP's policy manager can report them), and the VM-level
// thread lifecycle totals.
type VMCollector struct {
	VM *VM
}

// Collect implements obs.Collector.
func (c VMCollector) Collect() []obs.Metric {
	vm := c.VM
	if vm == nil {
		return nil
	}
	vmLabel := obs.L("vm", vm.Name())
	created := vm.stats.ThreadsCreated.Load()
	determined := vm.stats.ThreadsDetermined.Load()
	out := []obs.Metric{
		obs.Counter("sting_vm_threads_created_total", "Threads created on the VM.", float64(created), vmLabel),
		obs.Counter("sting_vm_threads_determined_total", "Threads determined on the VM.", float64(determined), vmLabel),
		obs.Gauge("sting_vm_threads_live", "Threads created but not yet determined.", float64(created-determined), vmLabel),
		obs.Counter("sting_vm_steals_total", "Delayed thunks absorbed VM-wide.", float64(vm.stats.Steals.Load()), vmLabel),
		obs.Gauge("sting_vm_vps", "Virtual processors in the vp-vector.", float64(vm.NVPs()), vmLabel),
	}
	for _, vp := range vm.vpVector() {
		l := []obs.Label{vmLabel, obs.L("vp", strconv.Itoa(vp.Index()))}
		s := &vp.stats
		hits := s.TCBHits.Load()
		misses := s.TCBMisses.Load()
		out = append(out,
			obs.Counter("sting_vp_dispatches_total", "Runnables granted the VP.", float64(s.Dispatches.Load()), l...),
			obs.Counter("sting_vp_switches_total", "Voluntary yields.", float64(s.Switches.Load()), l...),
			obs.Counter("sting_vp_preemptions_total", "Quantum expiries honoured.", float64(s.Preemptions.Load()), l...),
			obs.Counter("sting_vp_blocks_total", "Parks taken by hosted threads.", float64(s.Blocks.Load()), l...),
			obs.Counter("sting_vp_steals_total", "Thunks absorbed by hosted threads.", float64(s.Steals.Load()), l...),
			obs.Counter("sting_vp_scheduled_total", "Threads handed to this VP's manager.", float64(s.Scheduled.Load()), l...),
			obs.Counter("sting_vp_idles_total", "pm-vp-idle invocations.", float64(s.Idles.Load()), l...),
			obs.Counter("sting_vp_migrations_total", "Runnables taken from other VPs.", float64(s.Migrations.Load()), l...),
			obs.Counter("sting_vp_steal_batches_total", "VPIdle batch-steals that moved at least one runnable.", float64(s.StealBatches.Load()), l...),
			obs.Counter("sting_vp_failed_steals_total", "VPIdle passes that found nothing to take.", float64(s.FailedSteals.Load()), l...),
			obs.Counter("sting_vp_tcb_cache_hits_total", "TCBs served from the recycle cache.", float64(hits), l...),
			obs.Counter("sting_vp_tcb_cache_misses_total", "TCBs freshly allocated.", float64(misses), l...),
			obs.Gauge("sting_vp_tcb_cache_size", "TCBs currently in the recycle cache.", float64(vp.CachedTCBs()), l...),
			obs.Gauge("sting_vp_tcb_cache_hit_ratio", "Fraction of dispatches served from the TCB cache.", hitRatio(hits, misses), l...),
		)
		if depth, ok := queueDepth(vp); ok {
			out = append(out, obs.Gauge("sting_vp_runq_depth", "Ready runnables queued at the VP's policy manager.", float64(depth), l...))
		}
	}
	return out
}

func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// queueDepth interrogates the VP's policy manager for its ready backlog.
// Managers opt in by exposing Len; others report nothing rather than lying.
func queueDepth(vp *VP) (int, bool) {
	if pm, ok := vp.pm.(interface{ Len() int }); ok {
		return pm.Len(), true
	}
	return 0, false
}

// TraceCollector exposes a trace ring's occupancy and overflow accounting.
type TraceCollector struct {
	Ring *TraceRing
}

// Collect implements obs.Collector.
func (c TraceCollector) Collect() []obs.Metric {
	if c.Ring == nil {
		return nil
	}
	return c.Ring.Stats().Metrics("trace", obs.RingFamilies{
		Retained: "sting_trace_events",
		Recorded: "sting_trace_recorded_total",
		Dropped:  "sting_trace_dropped_total",
	})
}

// ObsTraceEvents converts trace-ring events into the exporter's form, for
// obs.WriteChromeTrace and the /debug/trace endpoint.
func ObsTraceEvents(events []TraceEvent) []obs.TraceEvent {
	out := make([]obs.TraceEvent, len(events))
	for i, e := range events {
		out[i] = obs.TraceEvent{
			TimeNanos: e.At.UnixNano(),
			Kind:      e.Kind.String(),
			Thread:    e.Thread,
			VP:        e.VP,
		}
	}
	return out
}
