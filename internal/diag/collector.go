package diag

import "repro/internal/obs"

// Collector returns the diagnoser's obs metric source — the
// sting_diag_* families stingd registers under "diag".
func (d *Diagnoser) Collector() obs.Collector {
	return obs.CollectorFunc(func() []obs.Metric {
		return append([]obs.Metric{
			obs.Counter("sting_diag_samples_total",
				"Stall-sampler passes completed.",
				float64(d.samples.Load())),
			obs.Counter("sting_diag_stalls_total",
				"Waiter stall onsets (parked past the SLO).",
				float64(d.stallOnsets.Load())),
			obs.Gauge("sting_diag_stalled_waiters",
				"Waiters currently parked past the SLO.",
				float64(d.stalledNow.Load())),
			obs.Counter("sting_diag_deadlocks_total",
				"Distinct wait-for cycles detected.",
				float64(d.deadlocked.Load())),
			obs.Counter("sting_diag_watchdog_stalls_total",
				"Scheduler stalls detected by the stingd watchdog.",
				float64(d.watchdog.Load())),
			obs.Counter("sting_diag_key_events_total",
				"Key events observed by the hot-key profiler.",
				float64(d.prof.puts.Load()), obs.L("op", "put")),
			obs.Counter("sting_diag_key_events_total",
				"Key events observed by the hot-key profiler.",
				float64(d.prof.takes.Load()), obs.L("op", "take")),
			obs.Counter("sting_diag_key_events_total",
				"Key events observed by the hot-key profiler.",
				float64(d.prof.conflicts.Load()), obs.L("op", "conflict")),
			obs.Counter("sting_diag_wake_misses_total",
				"Wait-table wake misses seen by the profiler.",
				float64(d.prof.wakeMisses.Load())),
			obs.Counter("sting_diag_handoffs_total",
				"Baton handoffs seen by the profiler.",
				float64(d.prof.handoffs.Load())),
			obs.HistogramSample("sting_diag_sample_latency_seconds",
				"Latency of one stall-sampler pass.",
				d.sampleLat),
		}, d.rec.Stats().Metrics("flight-recorder", obs.RingFamilies{
			Recorded: "sting_diag_recorder_events_total",
			Dropped:  "sting_diag_recorder_dropped_total",
		})...)
	})
}
