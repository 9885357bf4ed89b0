package tspace

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// TestHashWildcardRace hammers exactly the path the remote server serves
// from many connections at once: producers Put into hashed and wildcard
// bins while consumers probe with fully wildcard templates (hashStore.probe
// degrades to the whole arity class) and an auditor calls Len
// concurrently. Run under -race this checks the per-bin locking; the final
// accounting checks that lazy deletion never loses or double-counts a
// tuple: puts - successful gets must equal the surviving Len.
func TestHashWildcardRace(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 300
	)
	vm := testkit.VM(t, 4, 4)
	ts := New(KindHash, Config{Bins: 4}) // few bins to force collisions

	var puts, gets atomic.Int64
	testkit.Run(t, vm, func(ctx *core.Context) ([]core.Value, error) {
		workers := make([]*core.Thread, 0, producers+consumers+1)
		for p := 0; p < producers; p++ {
			p := p
			workers = append(workers, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				for i := 0; i < perProd; i++ {
					// Alternate keyable and unkeyable first fields so both
					// the hashed bins and the arity wildcard bin fill.
					var tup Tuple
					if i%2 == 0 {
						tup = Tuple{"job", p*perProd + i}
					} else {
						tup = Tuple{[2]int{p, i}, p*perProd + i} // unkeyable → wildBin
					}
					if err := ts.Put(c, tup); err != nil {
						return nil, err
					}
					puts.Add(1)
				}
				return nil, nil
			}, nil))
		}
		for w := 0; w < consumers; w++ {
			workers = append(workers, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
				misses := 0
				for misses < 2000 {
					_, _, err := ts.TryGet(c, Template{F("tag"), F("n")})
					switch err {
					case nil:
						gets.Add(1)
						misses = 0
					case ErrNoMatch:
						misses++
						c.Yield()
					default:
						return nil, err
					}
				}
				return nil, nil
			}, nil))
		}
		// The auditor races Len against the put/get storm; any value it
		// sees must be non-negative and bounded by the total put count.
		workers = append(workers, ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			for i := 0; i < 500; i++ {
				n := ts.Len()
				if n < 0 || n > producers*perProd {
					t.Errorf("mid-race Len = %d out of range", n)
				}
				c.Yield()
			}
			return nil, nil
		}, nil))
		for _, w := range workers {
			if _, err := c2v(ctx, w); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})

	want := int(puts.Load() - gets.Load())
	if got := ts.Len(); got != want {
		t.Fatalf("Len = %d, want puts-gets = %d (puts=%d gets=%d)",
			got, want, puts.Load(), gets.Load())
	}
	if w := ts.(WaiterCount).Waiters(); w != 0 {
		t.Fatalf("waiters = %d after non-blocking stress, want 0", w)
	}
}

// c2v awaits a worker thread and surfaces its error.
func c2v(ctx *core.Context, t *core.Thread) ([]core.Value, error) {
	return ctx.Value(t)
}
