package scheme

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/testkit"
)

// poison is what the caller's argument storage holds after a primitive
// returns: the bytecode VM reuses that operand-stack window at once.
const poison = Symbol("#[reused-stack-slot]")

// argKinds builds fresh argument values, one constructor per kind, so a
// primitive that mutates an argument cannot leak into the next call.
var argKinds = []func() Value{
	func() Value { return int64(2) },
	func() Value { return List(int64(3), int64(1), int64(2)) },
	func() Value { return NewSString("2") },
	func() Value { return &Vector{Items: []Value{int64(1), int64(2), int64(3)}} },
	func() Value { return Symbol("k") },
	func() Value { // a procedure, for apply, map, sort, call-with-values, ...
		return &Primitive{Name: "list", Min: 0, Max: -1,
			Fn: func(_ *Interp, _ *core.Context, a []Value) (Value, error) { return List(a...), nil }}
	},
}

// renderOutcome is everything a caller can observe of one primitive call.
func renderOutcome(v Value, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return WriteString(v)
}

// TestPrimitivesBorrowArgs holds every primitive in the global frame —
// present or future — to PrimFn's contract: args is lent, so what a call
// returns (value or error) must read the same after the caller has
// overwritten the slice it passed. Each primitive is tried at every arity
// it accepts up to three with every combination of argument kinds.
func TestPrimitivesBorrowArgs(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	in := New(vm, WithOutput(&strings.Builder{}))
	var prims []*Primitive
	in.global.mu.Lock()
	for _, c := range in.global.vars {
		if v, _ := c.Load(); v != nil {
			if p, ok := v.(*Primitive); ok {
				prims = append(prims, p)
			}
		}
	}
	in.global.mu.Unlock()
	sort.Slice(prims, func(i, j int) bool { return prims[i].Name < prims[j].Name })
	if len(prims) < 150 {
		t.Fatalf("found only %d primitives in the global frame", len(prims))
	}

	calls, succeeded := 0, map[Symbol]bool{}
	testkit.RunIn(t, vm, func(ctx *core.Context) error {
		for _, p := range prims {
			for n := p.Min; n <= 3 && (p.Max < 0 || n <= p.Max); n++ {
				combos := 1
				for i := 0; i < n; i++ {
					combos *= len(argKinds)
				}
				for combo := 0; combo < combos; combo++ {
					scratch := make([]Value, n)
					for i, c := 0, combo; i < n; i, c = i+1, c/len(argKinds) {
						scratch[i] = argKinds[c%len(argKinds)]()
					}
					shown := fmt.Sprintf("(%s %s)", p.Name, strings.Trim(WriteString(List(scratch...)), "()"))
					v, err := p.Fn(in, ctx, scratch)
					before := renderOutcome(v, err)
					for i := range scratch {
						scratch[i] = poison
					}
					if after := renderOutcome(v, err); after != before {
						t.Errorf("%s keeps its args slice: returned %s, which reads %s once the caller reuses the slice",
							shown, before, after)
					}
					calls++
					if err == nil {
						succeeded[p.Name] = true
					}
				}
			}
		}
		return nil
	})
	// The sweep must reach the primitives' success paths, not just their
	// argument checks.
	if len(succeeded) < len(prims)/2 {
		t.Errorf("only %d of %d primitives returned a value in %d calls", len(succeeded), len(prims), calls)
	}
}

// TestTerminateCopiesValues: the two primitives whose effect outlives the
// call in another thread's result rather than their own — a terminated
// thread's values must not alias the terminator's argument storage.
func TestTerminateCopiesValues(t *testing.T) {
	vm := testkit.VM(t, 1, 1)
	in := New(vm, WithOutput(&strings.Builder{}))
	for _, name := range []Symbol{"thread-terminate", "terminate!"} {
		v, _ := in.global.Lookup(name)
		p := v.(*Primitive)
		testkit.RunIn(t, vm, func(ctx *core.Context) error {
			victim := ctx.CreateThread(func(*core.Context) ([]core.Value, error) { return nil, nil })
			scratch := []Value{victim, int64(7), int64(8)}
			if _, err := p.Fn(in, ctx, scratch); err != nil {
				return err
			}
			for i := range scratch {
				scratch[i] = poison
			}
			vals, _ := victim.TryValue()
			if got := WriteString(List(vals...)); got != "(7 8)" {
				t.Errorf("%s: the terminated thread's values read %s once the caller reuses its slice, want (7 8)", name, got)
			}
			return nil
		})
	}
}
