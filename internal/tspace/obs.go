package tspace

import (
	"repro/internal/obs"
)

// RegistryCollector exposes a named-space registry to the obs layer:
// per-space depths and blocked-waiter counts, plus the space population.
// Depths are read without holding the registry lock (each space's Len
// takes its own locks), so a scrape never stalls fabric traffic.
type RegistryCollector struct {
	Registry *Registry
}

// Collect implements obs.Collector.
func (c RegistryCollector) Collect() []obs.Metric {
	r := c.Registry
	if r == nil {
		return nil
	}
	var out []obs.Metric
	n := 0
	r.each(func(name string, ts localSpace) {
		n++
		l := []obs.Label{obs.L("space", name), obs.L("kind", ts.Kind().String())}
		wakes, misses, handoffs := ts.WakeStats()
		out = append(out,
			obs.Gauge("sting_tspace_depth", "Tuples present in the space.", float64(ts.Len()), l...),
			obs.Gauge("sting_tspace_waiters", "Threads blocked on the space.", float64(ts.Waiters()), l...),
			obs.Counter("sting_tspace_wakes_total", "Deposits that woke a blocked waiter.", float64(wakes), l...),
			obs.Counter("sting_tspace_wake_misses_total", "Woken waiters whose re-probe found nothing.", float64(misses), l...),
			obs.Counter("sting_tspace_wake_handoffs_total", "Wake obligations passed to the next compatible waiter.", float64(handoffs), l...),
		)
	})
	return append([]obs.Metric{
		obs.Gauge("sting_tspace_spaces", "Named tuple spaces registered.", float64(n)),
	}, out...)
}
