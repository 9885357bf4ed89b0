package obs

import (
	"slices"
	"sync"
	"testing"
)

// TestRing drives the one ring through every shape its users rely on: the
// newest values survive overflow oldest-first, Tail and At agree across
// the wraparound, Drain empties without resetting the totals, and the
// accounting rule Recorded == Drained + Retained + Dropped holds after
// every step.
func TestRing(t *testing.T) {
	type step struct {
		record int    // values to record next, numbered on from the last
		drain  bool   // then drain, checking the drained values
		want   []int  // retained values afterwards, oldest first
		tail   int    // Tail(tail) must equal the newest tail of want
		stats  [4]int // recorded, drained, retained, dropped
	}
	for _, tc := range []struct {
		name  string
		cap   int
		steps []step
	}{
		{"under capacity", 4, []step{
			{record: 3, want: []int{0, 1, 2}, tail: 2, stats: [4]int{3, 0, 3, 0}},
		}},
		{"overflow keeps newest", 4, []step{
			{record: 10, want: []int{6, 7, 8, 9}, tail: 3, stats: [4]int{10, 0, 4, 6}},
		}},
		{"wraparound at a non-zero head", 5, []step{
			{record: 7, want: []int{2, 3, 4, 5, 6}, tail: 4, stats: [4]int{7, 0, 5, 2}},
			{record: 4, want: []int{6, 7, 8, 9, 10}, tail: 5, stats: [4]int{11, 0, 5, 6}},
		}},
		{"drain keeps totals", 4, []step{
			{record: 8, drain: true, want: nil, tail: 4, stats: [4]int{8, 4, 0, 4}},
			{record: 2, want: []int{8, 9}, tail: 9, stats: [4]int{10, 4, 2, 4}},
			{record: 5, drain: true, want: nil, tail: 1, stats: [4]int{15, 8, 0, 7}},
		}},
		{"capacity one", 1, []step{
			{record: 3, want: []int{2}, tail: 1, stats: [4]int{3, 0, 1, 2}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.cap)
			next := 0
			for i, st := range tc.steps {
				for k := 0; k < st.record; k++ {
					r.Record(next)
					next++
				}
				if st.drain {
					// A drain returns what the ring held: the newest values.
					held := r.Tail(r.Cap())
					if got := r.Drain(); !slices.Equal(got, held) {
						t.Fatalf("step %d: Drain = %v, want %v", i, got, held)
					}
				}
				if r.Len() != len(st.want) {
					t.Fatalf("step %d: Len = %d, want %d", i, r.Len(), len(st.want))
				}
				for j, v := range st.want {
					if got := r.At(j); got != v {
						t.Fatalf("step %d: At(%d) = %d, want %d", i, j, got, v)
					}
				}
				n := min(st.tail, len(st.want))
				if got := r.Tail(st.tail); !slices.Equal(got, st.want[len(st.want)-n:]) {
					t.Fatalf("step %d: Tail(%d) = %v, want %v", i, st.tail, got, st.want[len(st.want)-n:])
				}
				s := r.Stats()
				got := [4]int{int(s.Recorded), int(s.Drained), int(s.Retained), int(s.Dropped)}
				if got != st.stats {
					t.Fatalf("step %d: recorded/drained/retained/dropped = %v, want %v", i, got, st.stats)
				}
			}
		})
	}

	// Several writers race one drainer. No value is torn, each writer's
	// values drain in the order written, and every value is drained
	// exactly once or counted dropped.
	t.Run("concurrent record and drain", func(t *testing.T) {
		type ev struct{ writer, seq, check int }
		const writers, each = 8, 4000
		r := NewSyncRing[ev](256)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq := 0; seq < each; seq++ {
					r.Record(ev{w, seq, w*each + seq})
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		last := make([]int, writers)
		for i := range last {
			last[i] = -1
		}
		var drained uint64
		check := func(batch []ev) {
			for _, e := range batch {
				if e.writer < 0 || e.writer >= writers || e.check != e.writer*each+e.seq {
					t.Fatalf("torn value %+v", e)
				}
				if e.seq <= last[e.writer] {
					t.Fatalf("writer %d: seq %d drained after %d", e.writer, e.seq, last[e.writer])
				}
				last[e.writer] = e.seq
			}
			drained += uint64(len(batch))
			if s := r.Stats(); s.Recorded != s.Drained+s.Retained+s.Dropped {
				t.Fatalf("accounting broken mid-run: %+v", s)
			}
		}
		for {
			select {
			case <-done:
				check(r.Drain())
				s := r.Stats()
				if s.Recorded != writers*each || s.Drained != drained || s.Retained != 0 ||
					s.Drained+s.Dropped != s.Recorded {
					t.Fatalf("final accounting %+v, drained %d of %d", s, drained, writers*each)
				}
				return
			default:
				check(r.Drain())
			}
		}
	})
}
