package stm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// BenchmarkSTMContention is the Synchrobench-style sweep: a universe of
// counter tuples, g worker threads on four VPs splitting b.N transactions,
// u% of them transfers between two keys (two takes, two puts) and the rest
// two-key reads, keys drawn uniformly or Zipf(1.2). Two regimes: 32 keys is
// the dilute case that prices a commit; 4 keys with a yield between a
// transfer's reads and writes makes transfers collide for real, also on a
// host with few processors where timeslicing alone hides the interleavings.
// ns/op is wall time per transaction; conflicts/op and retries/op are what
// the optimistic commit paid for it.
//
//	go test -run '^$' -bench STMContention -count 5 ./internal/stm/
func BenchmarkSTMContention(b *testing.B) {
	for _, keys := range []int{32, 4} {
		for _, g := range []int{1, 2, 4, 8} {
			for _, u := range []int{10, 100} {
				for _, skew := range []string{"uni", "1.2"} {
					if keys == 4 && (skew != "uni" || g < 2) {
						continue // no skew over 4 keys; one worker cannot conflict
					}
					b.Run(fmt.Sprintf("keys=%d/g=%d/u=%d/skew=%s", keys, g, u, skew), func(b *testing.B) {
						benchContention(b, keys, g, u, skew != "uni", keys == 4)
					})
				}
			}
		}
	}
}

func benchContention(b *testing.B, keys, workers, updatePct int, zipf, think bool) {
	const initial, vps = 1000, 4
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	testkit.RunFresh(b, vps, vps, func(vm *core.VM, ctx *core.Context) error {
		for i := 0; i < keys; i++ {
			if err := ts.Put(ctx, tspace.Tuple{"k", i, initial}); err != nil {
				return err
			}
		}
		before := CurrentStats()
		b.ResetTimer()
		kids := make([]*core.Thread, workers)
		for w := range kids {
			kids[w] = ctx.Fork(func(cc *core.Context) ([]core.Value, error) {
				rng := rand.New(rand.NewSource(int64(w + 1)))
				pick := func() int { return rng.Intn(keys) }
				if zipf {
					z := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
					pick = func() int { return int(z.Uint64()) }
				}
				for n := w; n < b.N; n += workers {
					k1, k2 := pick(), pick()
					if k1 == k2 {
						k2 = (k2 + 1) % keys
					}
					update := rng.Intn(100) < updatePct
					err := Atomic(cc, func(tx *Txn) error {
						if !update {
							if _, _, err := tx.Rd(ts, tspace.Template{"k", k1, tspace.F("n")}); err != nil {
								return err
							}
							_, _, err := tx.Rd(ts, tspace.Template{"k", k2, tspace.F("n")})
							return err
						}
						t1, _, err := tx.Get(ts, tspace.Template{"k", k1, tspace.F("n")})
						if err != nil {
							return err
						}
						t2, _, err := tx.Get(ts, tspace.Template{"k", k2, tspace.F("n")})
						if err != nil {
							return err
						}
						if think {
							cc.Yield()
						}
						if err := tx.Put(ts, tspace.Tuple{"k", k1, t1[2].(int) - 1}); err != nil {
							return err
						}
						return tx.Put(ts, tspace.Tuple{"k", k2, t2[2].(int) + 1})
					})
					if err != nil {
						return nil, fmt.Errorf("worker %d txn %d: %w", w, n, err)
					}
				}
				return nil, nil
			}, vm.VP(w%vps), core.WithStealable(false))
		}
		for _, k := range kids {
			if _, err := ctx.Value(k); err != nil {
				return err
			}
		}
		b.StopTimer()
		after := CurrentStats()
		b.ReportMetric(float64(after.Conflicts-before.Conflicts)/float64(b.N), "conflicts/op")
		b.ReportMetric(float64(after.Retries-before.Retries)/float64(b.N), "retries/op")

		sum := 0
		for i := 0; i < keys; i++ {
			tup, _, err := ts.TryRd(ctx, tspace.Template{"k", i, tspace.F("n")})
			if err != nil {
				return fmt.Errorf("key %d after the run: %w", i, err)
			}
			sum += tup[2].(int)
		}
		if sum != keys*initial {
			return fmt.Errorf("counters sum to %d, want %d: a transfer was lost or doubled", sum, keys*initial)
		}
		return nil
	})
}

// BenchmarkSTMOverhead prices the transactional machinery against the ops
// it wraps: one TryGet+Put pair on a 64-key space no transaction touches
// (naked), and the same pair inside an always-committing Atomic (txn).
func BenchmarkSTMOverhead(b *testing.B) {
	for _, mode := range []string{"naked", "txn"} {
		b.Run(mode, func(b *testing.B) {
			ts := tspace.New(tspace.KindHash, tspace.Config{})
			testkit.RunFresh(b, 2, 2, func(_ *core.VM, ctx *core.Context) error {
				for i := 0; i < 64; i++ {
					if err := ts.Put(ctx, tspace.Tuple{"k", i, 0}); err != nil {
						return err
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tpl, tup := tspace.Template{"k", i & 63, tspace.F("v")}, tspace.Tuple{"k", i & 63, i}
					if mode == "naked" {
						if _, _, err := ts.TryGet(ctx, tpl); err != nil {
							return err
						}
						if err := ts.Put(ctx, tup); err != nil {
							return err
						}
						continue
					}
					err := Atomic(ctx, func(tx *Txn) error {
						if _, _, err := tx.TryGet(ts, tpl); err != nil {
							return err
						}
						return tx.Put(ts, tup)
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}
