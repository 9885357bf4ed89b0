package main

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The store is stingtop's time-series layer: it retains a trailing window
// of scraped metrics, so questions a point-in-time /metrics scrape cannot
// answer — "what was the p99 over the last minute", "what is the abort
// *rate*, not the abort count since boot" — become answerable without an
// external Prometheus.
//
// Every scrape goes through obs.ParsePrometheus and ingest into
// per-series fixed-size rings. Counters keep their raw cumulative values
// (windowed rates are computed reset-safely from consecutive deltas),
// gauges keep raw values, and histograms retain whole bucket snapshots, so
// a quantile is computable over any trailing window by subtracting the
// snapshot at the window's start from the one at its end.
//
// The same bucket arithmetic powers the cross-node rollup: increase takes
// each node's growth since its last scrape, sumSeries adds the nodes'
// scalars, and mergeHistograms their histograms bucket by bucket, which is
// exact for identically bounded histograms (every histogram in this
// repository uses obs.LatencyBuckets), so a cluster quantile is the true
// quantile of the union of observations, not an average of per-shard ones.
//
// The SLO engine (slo.go) evaluates objectives against the store after
// every scrape round.

// seriesCap is the per-series ring size: at the default 2s refresh it
// retains 20 minutes of history, covering the longest SLO windows anyone
// writes while bounding memory per series.
const seriesCap = 600

// point is one scalar sample.
type point struct {
	t time.Time
	v float64
}

// histPoint is one retained histogram snapshot.
type histPoint struct {
	t    time.Time
	snap *obs.HistogramSnapshot
}

// series is the retained history of one (name, labels) metric stream.
// Scalar kinds fill pts; histograms fill hist.
type series struct {
	name   string
	labels []obs.Label

	pts  *obs.Ring[point]
	hist *obs.Ring[histPoint]
}

// store holds every series' ring. All methods are safe for concurrent
// use.
type store struct {
	mu     sync.RWMutex
	cap    int // per-series ring size
	series map[string]*series
}

func newStore() *store {
	return &store{cap: seriesCap, series: make(map[string]*series)}
}

// seriesKey identifies a series: family name plus rendered labels.
func seriesKey(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l.Key + "=" + l.Value
	}
	return k + "}"
}

// ingest appends one gathered snapshot, stamped t, into the rings.
func (st *store) ingest(t time.Time, metrics []obs.Metric) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, m := range metrics {
		key := seriesKey(m.Name, m.Labels)
		s, ok := st.series[key]
		if !ok {
			s = &series{name: m.Name, labels: slices.Clone(m.Labels)}
			if m.Kind == obs.KindHistogram {
				s.hist = obs.NewRing[histPoint](st.cap)
			} else {
				s.pts = obs.NewRing[point](st.cap)
			}
			st.series[key] = s
		}
		if m.Kind == obs.KindHistogram {
			if s.hist != nil {
				s.hist.Record(histPoint{t: t, snap: m.Hist})
			}
		} else if s.pts != nil {
			s.pts.Record(point{t: t, v: m.Value})
		}
	}
}

// lookup finds the series for (name, labels); labels match exactly
// (order-insensitive).
func (st *store) lookup(name string, labels []obs.Label) *series {
	if s, ok := st.series[seriesKey(name, labels)]; ok {
		return s
	}
	// Label order may differ between the selector and the collector;
	// fall back to a scan with set comparison.
	for _, s := range st.series {
		if s.name == name && labelsMatch(s.labels, labels) {
			return s
		}
	}
	return nil
}

func labelsMatch(a, b []obs.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for _, la := range a {
		if !slices.Contains(b, la) {
			return false
		}
	}
	return true
}

// rate computes the windowed per-second rate of a counter series over the
// trailing window ending at the newest sample. It sums only positive
// deltas between consecutive samples, so a process restart (counter
// reset) costs the one increment that spanned it instead of producing a
// huge negative spike. ok=false means fewer than two in-window samples.
func (st *store) rate(name string, labels []obs.Label, window time.Duration) (rate float64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.pts == nil || s.pts.Len() < 2 {
		return 0, false
	}
	pts := s.pts
	n := pts.Len()
	newest := pts.At(n - 1)
	cutoff := newest.t.Add(-window)
	// Find the anchor: the newest sample at or before the cutoff when one
	// exists (so the window is fully covered), else the oldest retained.
	first := 0
	for i := n - 1; i >= 0; i-- {
		first = i
		if !pts.At(i).t.After(cutoff) {
			break
		}
	}
	if first == n-1 {
		return 0, false
	}
	var sum float64
	prev := pts.At(first)
	for i := first + 1; i < n; i++ {
		cur := pts.At(i)
		if d := cur.v - prev.v; d > 0 {
			sum += d
		}
		prev = cur
	}
	elapsed := newest.t.Sub(pts.At(first).t).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	return sum / elapsed, true
}

// gaugeStats returns the newest sample of a gauge (or counter value)
// series.
func (st *store) gaugeStats(name string, labels []obs.Label) (float64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.pts == nil || s.pts.Len() == 0 {
		return 0, false
	}
	return s.pts.At(s.pts.Len() - 1).v, true
}

// windowHistogram returns the histogram of observations that landed
// inside the trailing window: the newest retained snapshot minus the
// snapshot at the window's start, bucket by bucket (clamped at zero so a
// reset degrades to the since-restart histogram instead of going
// negative).
func (st *store) windowHistogram(name string, labels []obs.Label, window time.Duration) (*obs.HistogramSnapshot, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.hist == nil || s.hist.Len() == 0 {
		return nil, false
	}
	n := s.hist.Len()
	newest := s.hist.At(n - 1)
	if newest.snap == nil {
		return nil, false
	}
	cutoff := newest.t.Add(-window)
	// The baseline is the newest sample at or before the cutoff. When no
	// retained sample is that old — the window reaches past retention, or
	// sampling just started — the baseline is zero and the full newest
	// snapshot is returned: since-boot is the best available answer early
	// in a process's life, and it converges to the true windowed view as
	// soon as retention covers the window.
	for i := n - 1; i >= 0; i-- {
		if p := s.hist.At(i); !p.t.After(cutoff) {
			return subtractHistogram(newest.snap, p.snap), true
		}
	}
	return cloneSnap(newest.snap), true
}

func cloneSnap(s *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	return &obs.HistogramSnapshot{
		Bounds: slices.Clone(s.Bounds),
		Counts: slices.Clone(s.Counts),
		Count:  s.Count,
		Sum:    s.Sum,
	}
}

// subtractHistogram computes newer−older bucket-wise, clamping each bucket
// (and the sum) at zero so counter resets degrade gracefully. Bounds must
// match; mismatched bounds return a clone of newer (the only honest
// answer when the bucket layout changed underneath the window).
func subtractHistogram(newer, older *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if older == nil || !slices.Equal(newer.Bounds, older.Bounds) || len(newer.Counts) != len(older.Counts) {
		return cloneSnap(newer)
	}
	out := &obs.HistogramSnapshot{
		Bounds: slices.Clone(newer.Bounds),
		Counts: make([]uint64, len(newer.Counts)),
	}
	for i := range newer.Counts {
		if newer.Counts[i] > older.Counts[i] {
			out.Counts[i] = newer.Counts[i] - older.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	out.Sum = max(newer.Sum-older.Sum, 0)
	return out
}

// increase returns the counters and histograms of cur, one node's scrape,
// as their increase since prev, the same node's previous scrape: a counter
// keeps its positive delta and a histogram its subtractHistogram, so a
// reset costs the one increment that spanned it, as in store.rate. A
// series absent from prev increases by its whole value; gauges are
// dropped. Summing the nodes' increases each round keeps a cluster counter
// continuous while nodes come and go.
func increase(cur, prev []obs.Metric) []obs.Metric {
	old := make(map[string]obs.Metric, len(prev))
	for _, m := range prev {
		old[seriesKey(m.Name, m.Labels)] = m
	}
	var out []obs.Metric
	for _, m := range cur {
		o := old[seriesKey(m.Name, m.Labels)]
		switch m.Kind {
		case obs.KindCounter:
			m.Value = max(m.Value-o.Value, 0)
		case obs.KindHistogram:
			m.Hist = subtractHistogram(m.Hist, o.Hist)
		default:
			continue
		}
		out = append(out, m)
	}
	return out
}

// sumSeries folds several gathered snapshots (one per node) into one
// series per (family, labels): scalars are summed and histograms merged
// with mergeHistograms. It is how stingtop sums the nodes' gauges and
// increases into its cluster series; labels must come in the same order
// from every node, which they do from identical collectors.
func sumSeries(snaps ...[]obs.Metric) []obs.Metric {
	idx := make(map[string]int)
	var out []obs.Metric
	for _, ms := range snaps {
		for _, m := range ms {
			k := seriesKey(m.Name, m.Labels)
			i, ok := idx[k]
			switch {
			case !ok:
				idx[k] = len(out)
				out = append(out, m)
			case m.Kind == obs.KindHistogram:
				out[i].Hist = mergeHistograms(out[i].Hist, m.Hist)
			default:
				out[i].Value += m.Value
			}
		}
	}
	return out
}

// mergeHistograms adds snapshots bucket-by-bucket into one cluster-wide
// histogram. Identically bounded inputs merge exactly: the merged quantile
// is the true quantile of the union of observations, so it is always
// bounded by the per-shard quantiles. The inputs are scraped from other
// processes, possibly other builds, so bounds may differ: such inputs are
// merged on the union of the bound sets, attributing each bucket's count
// to the first merged bucket that covers its upper bound — conservative
// (never under-reports a quantile) but lossy. nil inputs are skipped.
func mergeHistograms(snaps ...*obs.HistogramSnapshot) *obs.HistogramSnapshot {
	var live []*obs.HistogramSnapshot
	for _, s := range snaps {
		if s != nil && len(s.Counts) > 0 {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return &obs.HistogramSnapshot{}
	}
	bounds := live[0].Bounds
	same := true
	for _, s := range live[1:] {
		if !slices.Equal(s.Bounds, bounds) {
			same = false
			break
		}
	}
	if !same {
		bounds = unionBounds(live)
	}
	out := &obs.HistogramSnapshot{
		Bounds: slices.Clone(bounds),
		Counts: make([]uint64, len(bounds)+1),
	}
	for _, s := range live {
		if same {
			for i, c := range s.Counts {
				if i < len(out.Counts) {
					out.Counts[i] += c
				}
			}
		} else {
			for i, c := range s.Counts {
				out.Counts[mergeBucket(bounds, s.Bounds, i)] += c
			}
		}
		out.Sum += s.Sum
	}
	for _, c := range out.Counts {
		out.Count += c
	}
	return out
}

// unionBounds merges the bound sets of several snapshots, sorted and
// deduplicated.
func unionBounds(snaps []*obs.HistogramSnapshot) []float64 {
	var out []float64
	for _, s := range snaps {
		out = append(out, s.Bounds...)
	}
	sort.Float64s(out)
	return slices.Compact(out)
}

// mergeBucket maps source bucket i (of srcBounds) into the merged bound
// set: the first merged bucket whose upper bound is ≥ the source bucket's
// upper bound; the +Inf bucket maps to +Inf.
func mergeBucket(merged, srcBounds []float64, i int) int {
	if i >= len(srcBounds) {
		return len(merged) // +Inf
	}
	return sort.SearchFloat64s(merged, srcBounds[i])
}
