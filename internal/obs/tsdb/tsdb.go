// Package tsdb is the substrate's time-series layer: a dependency-free
// store that retains a trailing window of scraped metrics, so questions
// that a point-in-time /metrics scrape cannot answer — "what was the p99
// over the last minute", "what is the abort *rate*, not the abort count
// since boot" — become answerable without an external Prometheus.
//
// The store lives in stingtop, not in the server: every scrape goes
// through ParsePrometheus and Ingest into per-series fixed-size ring
// buffers. Counters keep their raw cumulative values (windowed rates are
// computed reset-safely from consecutive deltas), gauges keep raw values,
// and histograms retain whole bucket snapshots, so a quantile is
// computable over any trailing window by subtracting the snapshot at the
// window's start from the one at its end.
//
// The same bucket arithmetic powers the cross-node rollup: Increase takes
// each node's growth since its last scrape, SumSeries adds the nodes'
// scalars, and MergeHistograms their histograms bucket-by-bucket,
// which is exact for identically bounded histograms (every histogram in
// this repository uses obs.LatencyBuckets), so a cluster quantile is the
// true quantile of the union of observations, not an average of per-shard
// ones.
//
// On top sits the SLO engine (slo.go): declarative objectives evaluated
// against the store after every scrape round into ok/warn/breach states
// with error-budget burn accounting.
package tsdb

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultCapacity is the per-series ring size: at stingtop's default 2s
// refresh it retains 20 minutes of history, comfortably covering the
// longest SLO windows anyone writes while bounding memory per series.
const DefaultCapacity = 600

// Point is one scalar sample.
type Point struct {
	T time.Time
	V float64
}

// HistPoint is one retained histogram snapshot.
type HistPoint struct {
	T    time.Time
	Snap *obs.HistogramSnapshot
}

// Series is the retained history of one (name, labels) metric stream.
// Scalar kinds fill pts; histograms fill hist. The rings are owned by the
// Store's lock.
type Series struct {
	Name   string
	Labels []obs.Label
	Kind   obs.MetricKind

	pts  *obs.Ring[Point]
	hist *obs.Ring[HistPoint]
}

// Len reports how many live samples the series holds.
func (s *Series) Len() int {
	if s.hist != nil {
		return s.hist.Len()
	}
	return s.pts.Len()
}

// Store holds every series' ring. All methods are safe for concurrent
// use.
type Store struct {
	mu     sync.RWMutex
	cap    int
	series map[string]*Series
	order  []string // insertion-ordered keys for deterministic listing
}

// NewStore creates a store with the given per-series ring capacity
// (≤0 means DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, series: make(map[string]*Series)}
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

// Ingest appends one gathered snapshot, stamped t, into the rings.
func (st *Store) Ingest(t time.Time, metrics []obs.Metric) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, m := range metrics {
		key := seriesKey(m.Name, m.Labels)
		s, ok := st.series[key]
		if !ok {
			s = &Series{Name: m.Name, Labels: append([]obs.Label(nil), m.Labels...), Kind: m.Kind}
			if m.Kind == obs.KindHistogram {
				s.hist = obs.NewRing[HistPoint](st.cap)
			} else {
				s.pts = obs.NewRing[Point](st.cap)
			}
			st.series[key] = s
			st.order = append(st.order, key)
		}
		if m.Kind == obs.KindHistogram {
			if s.hist != nil {
				s.hist.Record(HistPoint{T: t, Snap: m.Hist})
			}
		} else if s.pts != nil {
			s.pts.Record(Point{T: t, V: m.Value})
		}
	}
}

// SeriesNames lists every retained series key in first-seen order.
func (st *Store) SeriesNames() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]string(nil), st.order...)
}

// lookup finds the series for (name, labels); labels match exactly
// (order-insensitive).
func (st *Store) lookup(name string, labels []obs.Label) *Series {
	if s, ok := st.series[seriesKey(name, labels)]; ok {
		return s
	}
	// Label order may differ between the selector and the collector;
	// fall back to a scan with set comparison.
	for _, s := range st.series {
		if s.Name == name && labelsMatch(s.Labels, labels) {
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
		found := false
		for _, lb := range b {
			if la == lb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Rate computes the windowed per-second rate of a counter series over the
// trailing window ending at the newest sample. It sums only positive
// deltas between consecutive samples, so a process restart (counter
// reset) costs the one increment that spanned it instead of producing a
// huge negative spike. ok=false means fewer than two in-window samples.
func (st *Store) Rate(name string, labels []obs.Label, window time.Duration) (rate float64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.pts == nil || s.pts.Len() < 2 {
		return 0, false
	}
	pts := s.pts
	n := pts.Len()
	newest := pts.At(n - 1)
	cutoff := newest.T.Add(-window)
	// Find the anchor: the newest sample at or before the cutoff when one
	// exists (so the window is fully covered), else the oldest retained.
	first := 0
	for i := n - 1; i >= 0; i-- {
		first = i
		if !pts.At(i).T.After(cutoff) {
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
		if d := cur.V - prev.V; d > 0 {
			sum += d
		}
		prev = cur
	}
	elapsed := newest.T.Sub(pts.At(first).T).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	return sum / elapsed, true
}

// GaugeStats returns the newest sample of a gauge (or counter value)
// series.
func (st *Store) GaugeStats(name string, labels []obs.Label) (float64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.pts == nil || s.pts.Len() == 0 {
		return 0, false
	}
	return s.pts.At(s.pts.Len() - 1).V, true
}

// WindowHistogram returns the histogram of observations that landed
// inside the trailing window: the newest retained snapshot minus the
// snapshot at the window's start, bucket by bucket (clamped at zero so a
// reset degrades to the since-restart histogram instead of going
// negative). With only one retained sample the full snapshot is returned
// — since-boot is the best available answer early in a process's life.
func (st *Store) WindowHistogram(name string, labels []obs.Label, window time.Duration) (*obs.HistogramSnapshot, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.lookup(name, labels)
	if s == nil || s.hist == nil || s.hist.Len() == 0 {
		return nil, false
	}
	n := s.hist.Len()
	newest := s.hist.At(n - 1)
	if newest.Snap == nil {
		return nil, false
	}
	cutoff := newest.T.Add(-window)
	// The baseline is the newest sample at or before the cutoff. When no
	// retained sample is that old — the window reaches past retention, or
	// sampling just started — the baseline is zero and the full newest
	// snapshot is returned: since-boot is the best available answer early
	// in a process's life, and it converges to the true windowed view as
	// soon as retention covers the window.
	var base *obs.HistogramSnapshot
	for i := n - 1; i >= 0; i-- {
		p := s.hist.At(i)
		if !p.T.After(cutoff) {
			base = p.Snap
			break
		}
	}
	if base == nil {
		return cloneSnap(newest.Snap), true
	}
	return SubtractHistogram(newest.Snap, base), true
}

func cloneSnap(s *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	out := &obs.HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count,
		Sum:    s.Sum,
	}
	return out
}

// SubtractHistogram computes newer−older bucket-wise, clamping each bucket
// (and the sum) at zero so counter resets degrade gracefully. Bounds must
// match; mismatched bounds return a clone of newer (the only honest
// answer when the bucket layout changed underneath the window).
func SubtractHistogram(newer, older *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if older == nil || !boundsEqual(newer.Bounds, older.Bounds) || len(newer.Counts) != len(older.Counts) {
		return cloneSnap(newer)
	}
	out := &obs.HistogramSnapshot{
		Bounds: append([]float64(nil), newer.Bounds...),
		Counts: make([]uint64, len(newer.Counts)),
	}
	for i := range newer.Counts {
		if newer.Counts[i] > older.Counts[i] {
			out.Counts[i] = newer.Counts[i] - older.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	if d := newer.Sum - older.Sum; d > 0 {
		out.Sum = d
	}
	return out
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Increase returns the counters and histograms of cur, one node's scrape,
// as their increase since prev, the same node's previous scrape: a counter
// keeps its positive delta and a histogram its SubtractHistogram, so a
// reset costs the one increment that spanned it, as in Store.Rate. A
// series absent from prev increases by its whole value; gauges are
// dropped. Summing the nodes' increases each round keeps a cluster counter
// continuous while nodes come and go.
func Increase(cur, prev []obs.Metric) []obs.Metric {
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
			m.Hist = SubtractHistogram(m.Hist, o.Hist)
		default:
			continue
		}
		out = append(out, m)
	}
	return out
}

// SumSeries folds several gathered snapshots (one per node) into one
// series per (family, labels): scalars are summed and histograms merged
// with MergeHistograms. It is how stingtop sums the nodes' gauges and
// increases into its cluster series; labels must come in the same order
// from every node, which they do from identical collectors.
func SumSeries(snaps ...[]obs.Metric) []obs.Metric {
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
				out[i].Hist = MergeHistograms(out[i].Hist, m.Hist)
			default:
				out[i].Value += m.Value
			}
		}
	}
	return out
}

// MergeHistograms adds snapshots bucket-by-bucket into one cluster-wide
// histogram. Identically bounded inputs (the only kind this repository
// produces) merge exactly: the merged quantile is the true quantile of
// the union of observations, so it is always bounded by the per-shard
// quantiles. Inputs whose bounds differ are merged on the union of the
// bound sets, attributing each bucket's count to the first merged bucket
// that covers its upper bound — conservative (never under-reports a
// quantile) but lossy; nil inputs are skipped.
func MergeHistograms(snaps ...*obs.HistogramSnapshot) *obs.HistogramSnapshot {
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
		if !boundsEqual(s.Bounds, bounds) {
			same = false
			break
		}
	}
	if !same {
		bounds = unionBounds(live)
	}
	out := &obs.HistogramSnapshot{
		Bounds: append([]float64(nil), bounds...),
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
	seen := make(map[float64]bool)
	var out []float64
	for _, s := range snaps {
		for _, b := range s.Bounds {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// mergeBucket maps source bucket i (of srcBounds) into the merged bound
// set: the first merged bucket whose upper bound is ≥ the source bucket's
// upper bound; the +Inf bucket maps to +Inf.
func mergeBucket(merged, srcBounds []float64, i int) int {
	if i >= len(srcBounds) {
		return len(merged) // +Inf
	}
	j := sort.SearchFloat64s(merged, srcBounds[i])
	if j >= len(merged) {
		return len(merged)
	}
	return j
}
