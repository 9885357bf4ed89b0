package diag

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testkit"
	"repro/internal/tspace"
)

// BenchmarkDiagOverhead is the runtime-diagnosis ablation: the diagnoser is
// sold on a nil-check cost when off and < 5% when on, so time exactly that —
// b.N keyed put/get hand-offs split over four producer/consumer pairs on one
// registry-named space, 80% of them on one key, with the profiler hook
// uninstalled (off) and installed (on). When on, the planted hot key must
// top the take sketch.
//
//	go test -run '^$' -bench DiagOverhead -count 5 ./internal/diag/
func BenchmarkDiagOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) { benchDiagOverhead(b, mode == "on") })
	}
}

func benchDiagOverhead(b *testing.B, on bool) {
	const pairs = 4
	key := func(i int) string {
		if i%5 != 4 {
			return "hot"
		}
		return fmt.Sprintf("cold-%d", i%16)
	}
	testkit.RunFresh(b, 4, 2*pairs, func(vm *core.VM, ctx *core.Context) error {
		reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
		ts := reg.OpenDefault("orders")
		var d *Diagnoser
		if on {
			d = New(Config{
				Node:         "bench",
				SamplePeriod: 100 * time.Millisecond,
				StallSLO:     time.Hour, // pricing the profiler, not stalls
				Waiters:      []WaiterSource{reg},
				VM:           vm,
			})
			d.Start()
			defer d.Stop()
		}

		var all []*core.Thread
		b.ResetTimer()
		for p := 0; p < pairs; p++ {
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := p; i < b.N; i += pairs {
					if err := ts.Put(c, tspace.Tuple{key(i), int64(i)}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(2*p), core.WithStealable(false)))
			all = append(all, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := p; i < b.N; i += pairs {
					if _, _, err := ts.Get(c, tspace.Template{key(i), tspace.F("v")}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}, vm.VP(2*p+1), core.WithStealable(false)))
		}
		for _, t := range all {
			if _, err := ctx.Value(t); err != nil {
				return err
			}
		}
		b.StopTimer()
		if on {
			sp := d.Sample().Spaces["orders"]
			if sp == nil || len(sp.Takes) == 0 || sp.Takes[0].Key != "hot" {
				return fmt.Errorf("planted hot key does not top the take sketch: %+v", sp)
			}
		}
		return nil
	})
}
