package bench

import (
	"testing"
	"time"
)

// The workloads double as integration tests: each must run, produce
// plausible counters, and satisfy the qualitative claim it exists to check.

func TestFig4Claims(t *testing.T) {
	lifo, err := RunFig4("lifo", 400)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := RunFig4("fifo", 400)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := RunFig4("delayed", 400)
	if err != nil {
		t.Fatal(err)
	}
	if lifo.NPrimes != fifo.NPrimes || fifo.NPrimes != delayed.NPrimes {
		t.Fatalf("regimes disagree on primes: %d %d %d",
			lifo.NPrimes, fifo.NPrimes, delayed.NPrimes)
	}
	// The paper's Fig. 4 claim: LIFO makes stealing dominant, FIFO
	// suppresses it, delayed futures steal everything.
	if lifo.Steals < lifo.Threads/2 {
		t.Errorf("LIFO steals = %d of %d threads; expected dominant",
			lifo.Steals, lifo.Threads)
	}
	if fifo.Steals > fifo.Threads/10 {
		t.Errorf("FIFO steals = %d of %d threads; expected rare",
			fifo.Steals, fifo.Threads)
	}
	if delayed.Steals != delayed.Threads-1 {
		t.Errorf("delayed steals = %d, want %d", delayed.Steals, delayed.Threads-1)
	}
}

func TestStealAblationClaim(t *testing.T) {
	on, err := RunStealAblation(true, 400)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunStealAblation(false, 400)
	if err != nil {
		t.Fatal(err)
	}
	if on.TCBAllocs >= off.TCBAllocs {
		t.Errorf("stealing did not reduce TCB allocs: %d vs %d",
			on.TCBAllocs, off.TCBAllocs)
	}
	if on.Blocks >= off.Blocks && off.Blocks > 0 {
		t.Errorf("stealing did not reduce blocking: %d vs %d", on.Blocks, off.Blocks)
	}
}

func TestRecycleAblationClaim(t *testing.T) {
	on, err := RunRecycleAblation(true, 400)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunRecycleAblation(false, 400)
	if err != nil {
		t.Fatal(err)
	}
	if on.TCBHits == 0 {
		t.Error("recycling produced no cache hits")
	}
	if off.TCBHits != 0 {
		t.Errorf("disabled recycling produced hits: %d", off.TCBHits)
	}
	if off.TCBMisses <= on.TCBMisses {
		t.Errorf("misses with recycling off (%d) not above on (%d)",
			off.TCBMisses, on.TCBMisses)
	}
}

func TestPMAblationRuns(t *testing.T) {
	for _, pol := range []string{"global-fifo", "local-lifo", "local-lifo-nomigrate", "unified-lifo"} {
		for _, wl := range []string{"worker-farm", "tree"} {
			r, err := RunPMAblation(pol, wl, 2, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", pol, wl, err)
			}
			if r.Elapsed <= 0 {
				t.Errorf("%s/%s: zero elapsed", pol, wl)
			}
		}
	}
}

func TestPreemptAblationRuns(t *testing.T) {
	for _, q := range []time.Duration{0, time.Millisecond} {
		r, err := RunPreemptAblation(q, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rounds != 5 {
			t.Errorf("rounds = %d", r.Rounds)
		}
	}
}

func TestTSLockAblationRuns(t *testing.T) {
	for _, bins := range []int{1, 8} {
		r, err := RunTSLockAblation(bins, 2, 50)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ops != 200 {
			t.Errorf("ops = %d", r.Ops)
		}
	}
}

func TestMutexContentionRuns(t *testing.T) {
	d, err := MutexContention(8, 2, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("zero duration")
	}
}

func TestAppWorkloads(t *testing.T) {
	if n, _, err := AppSieve(2, 2, 200); err != nil || n != 46 {
		t.Fatalf("sieve: n=%d err=%v", n, err)
	}
	if _, err := AppFarm(2, 2, 50); err != nil {
		t.Fatalf("farm: %v", err)
	}
	if _, err := AppSpeculative(2, 2, 3); err != nil {
		t.Fatalf("speculative: %v", err)
	}
	if _, err := AppTreeSum(2, 2, 6); err != nil {
		t.Fatalf("tree: %v", err)
	}
	if _, err := AppTuplePipeline(2, 2, 30); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
}
