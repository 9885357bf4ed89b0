package obs

import "sync"

// Ring is the substrate's one bounded event buffer: it keeps the newest
// Cap values and reads them oldest-first. The core trace ring, the span
// ring, the diag flight recorder and every tsdb series are Rings. A Ring
// is not safe for concurrent use; SyncRing wraps it in a mutex, and tsdb
// runs its rings under the Store's own lock.
//
// Every recorded value leaves exactly once, so the accounting rule
//
//	Recorded == Drained + Retained + Dropped
//
// always holds: a value is overwritten by a later Record (dropped),
// removed by Drain (drained), or still held (retained).
type Ring[T any] struct {
	buf      []T
	head     int // slot of the oldest retained value
	n        int // retained values
	recorded uint64
	drained  uint64
}

// NewRing creates a ring retaining the newest capacity values (≤0 means
// 1024).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Record appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Record(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
	} else {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
	}
	r.recorded++
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// At returns the i-th oldest retained value (0 ≤ i < Len).
func (r *Ring[T]) At(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// Tail copies out the newest n retained values, oldest first; n ≥ Len
// (Tail(Cap()), say) copies the whole ring.
func (r *Ring[T]) Tail(n int) []T {
	n = max(0, min(n, r.n))
	out := make([]T, n)
	start := (r.head + r.n - n) % len(r.buf)
	k := copy(out, r.buf[start:])
	copy(out[k:], r.buf)
	return out
}

// Drain removes and returns the retained values, oldest first. The
// recorded and dropped totals are cumulative and survive the drain.
func (r *Ring[T]) Drain() []T {
	out := r.Tail(r.n)
	clear(r.buf) // drop references the drained values still hold
	r.head, r.n = 0, 0
	r.drained += uint64(len(out))
	return out
}

// RingStats is a ring's accounting: Recorded == Drained + Retained +
// Dropped.
type RingStats struct {
	Recorded, Drained, Retained, Dropped uint64
}

// Stats reports the ring's accounting.
func (r *Ring[T]) Stats() RingStats {
	return RingStats{
		Recorded: r.recorded,
		Drained:  r.drained,
		Retained: uint64(r.n),
		Dropped:  r.recorded - r.drained - uint64(r.n),
	}
}

// RingFamilies names the metric families a ring's accounting is exported
// under; an empty name leaves that family out.
type RingFamilies struct {
	Retained, Recorded, Dropped, Drained string
}

// Metrics renders the accounting as samples: Retained is a gauge, the
// other three are counters. ring names the ring in the help text.
func (s RingStats) Metrics(ring string, f RingFamilies) []Metric {
	var out []Metric
	add := func(m Metric) {
		if m.Name != "" {
			out = append(out, m)
		}
	}
	add(Gauge(f.Retained, "Values currently retained in the "+ring+" ring.", float64(s.Retained)))
	add(Counter(f.Recorded, "Values ever recorded into the "+ring+" ring.", float64(s.Recorded)))
	add(Counter(f.Dropped, "Oldest values overwritten by "+ring+" ring overflow.", float64(s.Dropped)))
	add(Counter(f.Drained, "Values removed from the "+ring+" ring by explicit drains.", float64(s.Drained)))
	return out
}

// SyncRing is a Ring safe for concurrent use: every call holds one mutex.
// Its Record method is a ready-made core tracer or span sink.
type SyncRing[T any] struct {
	mu sync.Mutex
	r  *Ring[T]
}

// NewSyncRing creates a concurrent ring retaining the newest capacity
// values (≤0 means 1024).
func NewSyncRing[T any](capacity int) *SyncRing[T] {
	return &SyncRing[T]{r: NewRing[T](capacity)}
}

// Record appends v, overwriting the oldest value once the ring is full.
func (s *SyncRing[T]) Record(v T) {
	s.mu.Lock()
	s.r.Record(v)
	s.mu.Unlock()
}

// Tail copies out the newest n retained values, oldest first.
func (s *SyncRing[T]) Tail(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Tail(n)
}

// Drain removes and returns the retained values, oldest first.
func (s *SyncRing[T]) Drain() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Drain()
}

// Cap returns the ring capacity.
func (s *SyncRing[T]) Cap() int { return s.r.Cap() }

// Stats reports the ring's accounting, read atomically.
func (s *SyncRing[T]) Stats() RingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Stats()
}
