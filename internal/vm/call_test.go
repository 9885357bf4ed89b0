package vm_test

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/testkit"
	"repro/internal/vm"
)

// callShapes are the things compiled code does most. Each is a procedure
// (spin n) that repeats its shape n times in a tail loop, so the loop's own
// cost — a tail call whose locals reuse the activation's stack window, `=`
// and `-` on unboxed integers — is the same everywhere and `bare` measures
// it alone.
var callShapes = []struct {
	name, defs string
	extra      float64 // allocations per turn beyond bare's
}{
	{"bare", `(define (spin n) (if (= n 0) 0 (spin (- n 1))))`, 0},
	{"call", `(define (pick a b c d) c)
	          (define (spin n) (if (= n 0) 0 (begin (pick n n n n) (spin (- n 1)))))`, 0},
	{"global", `(define g '(1 2))
	            (define (spin n) (if (= n 0) 0 (begin g g g g (spin (- n 1)))))`, 0},
	{"prim", `(define p '(1 2))
	          (define (spin n) (if (= n 0) 0 (begin (< n n) (car p) (spin (- n 1)))))`, 0},
	{"closure", `(define (spin n) (if (= n 0) 0 (begin ((lambda () n)) (spin (- n 1)))))`, 1},
	{"arith", `(define (spin n) (if (= n 0) 0 (begin (+ (* n 1000) -7) (quotient (- 0 n) 3) (spin (- n 1)))))`, 0},
}

// spinner defines shape's procedures on a fresh vm-engine interpreter and
// answers a Go function running (spin n) on the calling STING thread.
func spinner(t testing.TB, in *scheme.Interp, defs string) func(ctx *core.Context, n int64) {
	t.Helper()
	if _, err := in.EvalString(defs); err != nil {
		t.Fatal(err)
	}
	spin, ok := in.Global().Lookup("spin")
	if !ok {
		t.Fatal("spin is unbound")
	}
	args := make([]scheme.Value, 1)
	return func(ctx *core.Context, n int64) {
		args[0] = n
		if _, err := in.Apply(ctx, spin, args); err != nil {
			t.Error(err)
		}
	}
}

// TestCallPathAllocs gates the calling convention: a warm vm→vm call, tail
// or not, allocates nothing — its locals live in the operand stack's window
// — nor does a global reference, a primitive call whose result needs no box,
// or integer arithmetic of any magnitude, whose results stay unboxed in the
// operand stack; making a closure over at most four free variables
// allocates exactly one object, the closure. Measured as the slope between
// 50 and 250 turns, which cancels what one exec allocates once (its operand
// stack), rounded to whole objects: a turn allocates an integer number, and
// the odd allocation a preemption tick or the race detector adds to a
// 200-turn run is not one.
func TestCallPathAllocs(t *testing.T) {
	perTurn := func(defs string) (slope float64) {
		in := newEngine(t, "vm", 1, 1)
		spin := spinner(t, in, defs)
		testkit.RunIn(t, in.VM(), func(ctx *core.Context) error {
			short := testing.AllocsPerRun(20, func() { spin(ctx, 50) })
			long := testing.AllocsPerRun(20, func() { spin(ctx, 250) })
			slope = math.Round((long - short) / 200)
			return nil
		})
		return slope
	}
	bare := perTurn(callShapes[0].defs)
	if bare != 0 {
		t.Errorf("a tail-call turn with two primitive calls allocates %v objects, want 0", bare)
	}
	for _, s := range callShapes[1:] {
		if got := perTurn(s.defs) - bare; got != s.extra {
			t.Errorf("%s: %v allocations per turn beyond the bare loop, want %v", s.name, got, s.extra)
		}
	}
}

func benchShape(b *testing.B, defs string) {
	in := newEngine(b, "vm", 1, 1)
	spin := spinner(b, in, defs)
	testkit.RunIn(b, in.VM(), func(ctx *core.Context) error {
		b.ReportAllocs()
		b.ResetTimer()
		for n := b.N; n > 0; n -= 200 {
			spin(ctx, int64(min(n, 200)))
		}
		return nil
	})
}

// One b.N unit is one loop turn of the shape; subtract BenchmarkVMLoop's
// figure for the cost of the shape alone.
func BenchmarkVMLoop(b *testing.B)      { benchShape(b, callShapes[0].defs) }
func BenchmarkVMCall(b *testing.B)      { benchShape(b, callShapes[1].defs) }
func BenchmarkVMGlobalRef(b *testing.B) { benchShape(b, callShapes[2].defs) }
func BenchmarkVMPrimCall(b *testing.B)  { benchShape(b, callShapes[3].defs) }
func BenchmarkVMClosure(b *testing.B)   { benchShape(b, callShapes[4].defs) }
func BenchmarkVMArith(b *testing.B)     { benchShape(b, callShapes[5].defs) }

// BenchmarkComputePass runs stingmark's scheme_compute pass — fib, tak,
// nqueens, mandel read, compiled and run — under each engine: the quick
// probe, and the profile target, for the row that workload reports.
func BenchmarkComputePass(b *testing.B) {
	var texts []string
	for _, name := range []string{"fib", "tak", "nqueens", "mandel"} {
		text, err := os.ReadFile("../../benchmark/programs/" + name + ".scm")
		if err != nil {
			b.Skip(err)
		}
		texts = append(texts, string(text))
	}
	for _, engine := range []string{"vm", "tree"} {
		b.Run(engine, func(b *testing.B) {
			in := newEngine(b, engine, 1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, text := range texts {
					if _, err := in.EvalString(text); err != nil {
						b.Fatal(err)
					}
				}
				in.VM().RootGroup().Reset()
			}
		})
	}
}

// TestDispatchCounterMovesMidLoop: a thread that spins inside one exec for
// its whole life still moves vm.Stats()'s dispatched count while it runs —
// the count is published at the poll boundary, not only at return.
func TestDispatchCounterMovesMidLoop(t *testing.T) {
	in := newEngine(t, "vm", 2, 2)
	if _, err := in.EvalString(`(define stop #f)`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := in.EvalString(`(let spin ((n 0)) (if stop n (spin (+ n 1))))`)
		done <- err
	}()
	moved := false
	_, _, before := vm.Stats()
	for deadline := time.Now().Add(5 * time.Second); !moved && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		_, _, now := vm.Stats()
		moved = now > before
	}
	in.Global().Define("stop", true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("dispatched did not move while the loop was running")
	}
}

// TestStackWindowCleared: once a call returns, the operand stack of the exec
// that made it no longer refers to the call's arguments, so a dead operand
// is collectable while its caller runs on.
func TestStackWindowCleared(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	freed := make(chan struct{})
	in.Global().Define("track", &scheme.Primitive{Name: "track", Min: 1, Max: 1,
		Fn: func(_ *scheme.Interp, _ *core.Context, a []scheme.Value) (scheme.Value, error) {
			runtime.SetFinalizer(a[0].(*scheme.Vector), func(*scheme.Vector) { close(freed) })
			return a[0], nil
		}})
	in.Global().Define("collected?", &scheme.Primitive{Name: "collected?", Min: 0, Max: 0,
		Fn: func(*scheme.Interp, *core.Context, []scheme.Value) (scheme.Value, error) {
			for i := 0; i < 50; i++ {
				runtime.GC()
				select {
				case <-freed:
					return true, nil
				case <-time.After(20 * time.Millisecond):
				}
			}
			return false, nil
		}})
	evalOn(t, in, `
		(define (use a v b) (vector-length v))
		(define (run) (use 1 (track (make-vector 8 0)) 2) (collected?))
		(run)`, `#t`)
}
