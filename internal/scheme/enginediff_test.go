// Differential fuzzing of the two execution engines. This file lives in
// package scheme_test (not scheme) because it imports internal/vm, and
// vm imports scheme — an external test package is the standard way to
// break that cycle.
//
// The fuzz input is not Scheme source: arbitrary text mostly fails to
// parse and can trivially loop forever. Instead the bytes drive a
// generator that only emits *terminating* programs — every loop it
// writes carries a small literal bound — covering the compiler's whole
// form repertoire (binding forms, conditionals, bounded named-let and do
// loops, set!, fluid-let, quasiquote for the fallback path, tuple-space
// put/get pairs, atomic, and the ways compiled code reaches a global).
// Each program runs on a fresh interpreter per engine and the results must
// agree exactly: value printout, captured output, and error presence + text
// (thread-id prefixes stripped).
package scheme_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/testkit"
	_ "repro/internal/vm" // registers the "vm" engine under test
)

// diffGen consumes fuzz bytes as a decision stream. Exhausted input
// yields zeros, so every byte string maps to one finite program.
type diffGen struct {
	data []byte
	pos  int
}

func (g *diffGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

// pick answers a decision in [0,n).
func (g *diffGen) pick(n int) int { return g.next() % n }

// atom emits a leaf expression; vars lists the lexicals in scope.
func (g *diffGen) atom(vars []string) string {
	switch g.pick(7) {
	case 0:
		return fmt.Sprintf("%d", g.pick(21)-10)
	case 1:
		return []string{"#t", "#f"}[g.pick(2)]
	case 2:
		return fmt.Sprintf("%q", []string{"a", "fuzz", ""}[g.pick(3)])
	case 3:
		return "'" + []string{"sym", "()", "(1 2 3)", "(a (b c))"}[g.pick(4)]
	case 4:
		if len(vars) > 0 {
			return vars[g.pick(len(vars))]
		}
		return fmt.Sprintf("%d", g.pick(10))
	case 6: // where int64 arithmetic wraps and float64 stops holding integers exactly
		return []string{"9007199254740993", "9007199254740991", "-9007199254740993", "-9007199254740991",
			"4611686018427387904", "-4611686018427387904", "9223372036854775807", "-9223372036854775808"}[g.pick(8)]
	default:
		return fmt.Sprintf("%d", g.pick(10))
	}
}

// expr emits one expression of at most the given depth.
func (g *diffGen) expr(depth int, vars []string) string {
	if depth <= 0 || g.pick(5) == 0 {
		return g.atom(vars)
	}
	sub := func() string { return g.expr(depth-1, vars) }
	switch g.pick(21) {
	case 0: // arithmetic (quotient/modulo included: divide-by-zero must error identically)
		op := []string{"+", "-", "*", "quotient", "modulo", "min", "max"}[g.pick(7)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 1: // comparisons
		op := []string{"=", "<", ">", "<=", ">=", "eq?", "equal?"}[g.pick(7)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 2: // unary ops — car/cdr on non-pairs, - and abs on non-numbers must error identically
		op := []string{"car", "cdr", "length", "reverse", "pair?", "null?", "not", "-", "abs"}[g.pick(9)]
		return fmt.Sprintf("(%s %s)", op, sub())
	case 3:
		return fmt.Sprintf("(cons %s %s)", sub(), sub())
	case 4:
		return fmt.Sprintf("(list %s %s %s)", sub(), sub(), sub())
	case 5:
		return fmt.Sprintf("(if %s %s %s)", sub(), sub(), sub())
	case 6: // let/let*/letrec introduce a fresh lexical
		v := fmt.Sprintf("v%d", depth)
		inner := append(append([]string{}, vars...), v)
		form := []string{"let", "let*", "letrec"}[g.pick(3)]
		return fmt.Sprintf("(%s ((%s %s)) %s)", form, v, sub(),
			g.expr(depth-1, inner))
	case 7: // lambda applied immediately
		v := fmt.Sprintf("p%d", depth)
		inner := append(append([]string{}, vars...), v)
		return fmt.Sprintf("((lambda (%s) %s) %s)", v,
			g.expr(depth-1, inner), sub())
	case 8: // bounded named-let loop (tail-call path)
		n := 1 + g.pick(8)
		return fmt.Sprintf(
			"(let lp%d ((i 0) (acc %s)) (if (>= i %d) acc (lp%d (+ i 1) (cons i acc))))",
			depth, sub(), n, depth)
	case 9: // bounded do loop (backward-branch path)
		n := 1 + g.pick(8)
		return fmt.Sprintf("(do ((i 0 (+ i 1)) (acc 0 (+ acc i))) ((>= i %d) acc))", n)
	case 10:
		op := []string{"and", "or"}[g.pick(2)]
		return fmt.Sprintf("(%s %s %s %s)", op, sub(), sub(), sub())
	case 11:
		op := []string{"when", "unless"}[g.pick(2)]
		return fmt.Sprintf("(%s %s %s)", op, sub(), sub())
	case 12:
		return fmt.Sprintf("(cond (%s %s) (%s => not) (else %s))",
			sub(), sub(), sub(), sub())
	case 13:
		return fmt.Sprintf("(case %s ((0 1 2) 'low) ((3 4) 'mid) (else 'high))", sub())
	case 14: // set! on a fresh binding
		v := fmt.Sprintf("s%d", depth)
		inner := append(append([]string{}, vars...), v)
		return fmt.Sprintf("(let ((%s %s)) (set! %s %s) %s)",
			v, sub(), v, g.expr(depth-1, inner), v)
	case 15: // quasiquote: the vm declines it, exercising the fallback seam
		return fmt.Sprintf("`(a ,%s ,@(list %s))", sub(), sub())
	case 16: // fluid-let extent + read-back
		return fmt.Sprintf("(fluid-let ((fz %s)) (fluid 'fz))", sub())
	case 17: // tuple space: put then get of the same key never blocks;
		// wrapped in atomic half the time
		body := fmt.Sprintf(
			"(let ((ts (make-tuple-space))) (put ts (list 'k %s)) (get ts (k ?v) v))",
			sub())
		if g.pick(2) == 0 {
			return "(atomic " + body + ")"
		}
		return body
	case 18: // a closure escapes the let or the call that bound its variable
		v := fmt.Sprintf("c%d", depth)
		inner := append(append([]string{}, vars...), v)
		if g.pick(2) == 0 {
			return fmt.Sprintf("((let ((%s %s)) (lambda () (list %s %s))))",
				v, sub(), v, g.expr(depth-1, inner))
		}
		return fmt.Sprintf("(((lambda (%s) (lambda () (list %s %s))) %s))",
			v, v, g.expr(depth-1, inner), sub())
	case 19: // sibling closures: one assigns the variable the other reads
		v := fmt.Sprintf("b%d", depth)
		inner := append(append([]string{}, vars...), v)
		return fmt.Sprintf("(let ((%s %s)) (let ((put%d (lambda (y) (set! %s y))) (see%d (lambda () %s))) (put%d %s) (list (see%d) %s)))",
			v, sub(), depth, v, depth, v, depth, g.expr(depth-1, inner), depth, v)
	case 20: // closures made in a do body share the loop's binding
		n := 1 + g.pick(4)
		inner := append(append([]string{}, vars...), "i")
		return fmt.Sprintf("(do ((i 0 (+ i 1)) (fs%d '())) ((>= i %d) (map (lambda (f) (f)) fs%d)) (set! fs%d (cons (lambda () (list i %s)) fs%d)))",
			depth, n, depth, depth, g.expr(depth-1, inner), depth)
	}
	return g.atom(vars)
}

// globals emits a preamble that exercises how compiled code reaches the
// global frame: references linked before the define runs, redefinition seen
// by code compiled earlier (a primitive's name included), unbound reads and
// writes, a global read from a forked thread, and globals crossing the
// compiled/declined seam in both directions. Case 0 emits nothing.
func (g *diffGen) globals() string {
	e := func() string { return g.expr(2, nil) }
	switch g.pick(8) {
	case 1:
		return fmt.Sprintf("(define (gf) (gg))\n(define (gg) %s)\n(display (gf))\n(define (gg) %s)\n(display (gf))\n", e(), e())
	case 2:
		return fmt.Sprintf("(define (gf) (gg))\n(display %s)\n(display (gf))\n", e())
	case 3:
		return fmt.Sprintf("(display %s)\n(set! gnope %s)\n", e(), e())
	case 4:
		return fmt.Sprintf("(define (gf p) (car p))\n(display (gf (list %s)))\n(define (car x) (list 'mine x))\n(display (gf (list %s)))\n", e(), e())
	case 5:
		return fmt.Sprintf("(define gv %s)\n(define gt (create-thread (list gv gv)))\n(set! gv %s)\n(display (thread-value gt))\n(display (thread-value (fork-thread gv)))\n", e(), e())
	case 6:
		return fmt.Sprintf("(define (gf) gq)\n(define gq `(q ,%s))\n(display (gf))\n", e())
	case 7:
		return fmt.Sprintf("(define gr %s)\n(define (gs v) (set! gr v))\n(display `(r ,gr))\n(gs %s)\n(display `(r ,gr))\n", e(), e())
	}
	return ""
}

// program emits 1–3 toplevel forms, optionally a define used afterwards,
// and always displays something so output comparison has teeth; a globals
// preamble may run first (its decisions are read last, so inputs too short
// to reach them generate what they always did).
func (g *diffGen) program() string {
	var b strings.Builder
	if g.pick(2) == 0 {
		fmt.Fprintf(&b, "(define (fn x) %s)\n", g.expr(2, []string{"x"}))
		fmt.Fprintf(&b, "(display (fn %d)) (newline)\n", g.pick(10))
	}
	n := 1 + g.pick(2)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "(display %s) (newline)\n", g.expr(3, nil))
	}
	b.WriteString(g.expr(3, nil))
	return g.globals() + b.String()
}

// stripThreadDiff removes the varying "thread N (name): " error prefix —
// thread IDs differ across fresh machines while the message must not.
func stripThreadDiff(msg string) string {
	if strings.HasPrefix(msg, "thread ") {
		if i := strings.Index(msg, "): "); i >= 0 {
			return msg[i+3:]
		}
	}
	return msg
}

// engineRun is one engine's observable outcome for a program.
type engineRun struct {
	val    string
	out    string
	errTxt string
	failed bool
}

func runUnderEngine(t *testing.T, engine, src string) engineRun {
	t.Helper()
	m := testkit.VM(t, 1, 1)
	var out strings.Builder
	in := scheme.New(m, scheme.WithOutput(&out), scheme.WithEngine(engine))
	v, err := in.EvalString(src)
	if err != nil {
		return engineRun{out: out.String(), errTxt: stripThreadDiff(err.Error()), failed: true}
	}
	return engineRun{val: scheme.WriteString(v), out: out.String()}
}

// FuzzEngines: for every generated program, the bytecode VM and the
// tree-walker must produce identical values, identical output, and
// identical errors. Seed corpus: testdata/fuzz/FuzzEngines. Run longer
// with: go test -run xxx -fuzz FuzzEngines -fuzztime 30s ./internal/scheme/
func FuzzEngines(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("engines"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	for shape := byte(1); shape < 8; shape++ {
		f.Add(linkSeed(shape))
	}
	for _, seed := range captureSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		src := (&diffGen{data: data}).program()
		tree := runUnderEngine(t, "tree", src)
		vm := runUnderEngine(t, "vm", src)
		if tree != vm {
			t.Fatalf("engines diverge on:\n%s\ntree: %+v\nvm:   %+v", src, tree, vm)
		}
	})
}

// linkSeed is the fuzz input whose program is two constant displays behind
// the globals preamble of the given shape.
func linkSeed(shape byte) []byte {
	return []byte{1, 0, 0, 0, 11, 0, 0, 12, shape, 0, 0, 13, 0, 0, 14}
}

// TestLinkSeedsReachGlobals keeps the seeds above honest: each must
// generate its preamble, not fall off the end of the decision stream.
func TestLinkSeedsReachGlobals(t *testing.T) {
	for i, marker := range []string{"(define (gg) 4)", "(display (gf))", "(set! gnope 4)", "'mine", "(fork-thread gv)", "`(q ,3)", "(gs 4)"} {
		src := (&diffGen{data: linkSeed(byte(i + 1))}).program()
		if !strings.Contains(src, marker) || !strings.HasSuffix(src, "(display 1) (newline)\n2") {
			t.Errorf("seed for shape %d does not generate its preamble (%s) before the two constants:\n%s", i+1, marker, src)
		}
	}
}

// captureSeeds are fuzz inputs whose program is one capture case of expr,
// each marked by a fragment only that case writes.
var captureSeeds = []struct {
	data   []byte
	marker string
}{
	{[]byte{1, 0, 1, 18, 0}, "((let ((c3 "},
	{[]byte{1, 0, 1, 18, 1}, "(((lambda (c3) (lambda () (list c3 "},
	{[]byte{1, 0, 1, 19, 0, 0, 15, 0, 0, 18}, "(put3 8) (list (see3) b3)"},
	{[]byte{1, 0, 1, 20, 2}, "(set! fs3 (cons (lambda () (list i "},
}

// TestCaptureSeedsReachCaptures keeps the seeds above honest: each must
// generate its capture case.
func TestCaptureSeedsReachCaptures(t *testing.T) {
	for _, seed := range captureSeeds {
		if src := (&diffGen{data: seed.data}).program(); !strings.Contains(src, seed.marker) {
			t.Errorf("seed %v does not generate its capture case (%s):\n%s", seed.data, seed.marker, src)
		}
	}
}

// TestLinkingSemantics: compiled code reaches a global through a cell it
// was linked to when its toplevel form was compiled, the tree-walker
// through the global frame's map to the same cell. Whichever engine
// defines, assigns or reads, and in whichever order the forms arrive, both
// must print what the reference semantics print.
func TestLinkingSemantics(t *testing.T) {
	for _, c := range []struct{ name, src, want, wantErr string }{
		{"forward reference, then redefinition seen by compiled code",
			`(define (f) (g)) (define (g) 1) (define a (f)) (define (g) 2) (list a (f))`, `(1 2)`, ""},
		{"call before definition",
			`(define (f) (g)) (f)`, "", `unbound variable: g`},
		{"reference before definition",
			`(define (f) later) (f)`, "", `unbound variable: later`},
		{"assignment to a name nothing defined",
			`(set! nope 1)`, "", `set!: unbound variable nope`},
		{"assignment linked before the define, run before and after it",
			`(define (f) (set! later 1)) (define r (call-with-error-handler (lambda (e) 'refused) f)) (define later 0) (f) (list r later)`, `(refused 1)`, ""},
		{"a primitive redefined under a closure compiled earlier",
			`(define (first-of p) (car p)) (define a (first-of '(1 2))) (define (car x) 'mine) (list a (first-of '(1 2)))`, `(1 mine)`, ""},
		{"+ redefined under a closure compiled earlier",
			`(define (add a b) (+ a b)) (define a (add 1 1)) (define (+ x y) 'mine) (list a (add 1 1))`, `(2 mine)`, ""},
		{"+ rebound lexically",
			`(let ((+ -)) (+ 5 3))`, `2`, ""},
		{"a global read by a forked thread",
			`(define gv 41) (thread-value (fork-thread (+ gv 1)))`, `42`, ""},
		{"a delayed thread reads the global when it runs",
			`(define gv 1) (define t (create-thread gv)) (set! gv 2) (thread-value t)`, `2`, ""},
		{"a declined form defines what compiled code reads",
			"(define q `(a ,(+ 1 2))) (define (rq) q) (rq)", `(a 3)`, ""},
		{"... and what code compiled before it reads",
			"(define (rq) q) (define q `(b)) (rq)", `(b)`, ""},
		{"a declined form reads what compiled code defined and assigned",
			"(define r 5) (define (bump) (set! r (+ r 1))) (bump) `(r ,r)", `(r 6)`, ""},
		{"a cell linked but never bound stays unbound for the tree-walker",
			"(define (f) zz) `(,zz)", "", `unbound variable: zz`},
		{"... and for eval",
			`(define (f) zz) (eval 'zz)`, "", `unbound variable: zz`},
	} {
		for _, engine := range []string{"tree", "vm"} {
			got := runUnderEngine(t, engine, c.src)
			if got.val != c.want || got.errTxt != c.wantErr {
				t.Errorf("%s [%s]:\n%s\n  got  %q, error %q\n  want %q, error %q",
					c.name, engine, c.src, got.val, got.errTxt, c.want, c.wantErr)
			}
		}
	}
}

// TestGlobalRedefinedUnderReader: one thread calls (g) in a compiled loop
// while the toplevel redefines g a thousand times — by a compiled define, a
// compiled set!, and a define the compiler declines to the tree-walker.
// Run under -race (make race). Every value the reader sees is one that was
// stored, in the order it was stored.
func TestGlobalRedefinedUnderReader(t *testing.T) {
	m := testkit.VM(t, 2, 2)
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
	eval := func(src string) scheme.Value {
		t.Helper()
		v, err := in.EvalString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return v
	}
	eval(`
		(define stop #f)
		(define (g) 0)
		(define (watch last reads bad)
		  (if stop
		      (list reads bad)
		      (let ((v (g)))
		        (watch v (+ reads 1) (if (and (integer? v) (>= v last) (< v 1000)) bad (+ bad 1))))))
		(define watcher (fork-thread (watch 0 0 0)))`)
	for i := 1; i < 1000; i++ {
		switch i % 3 {
		case 0:
			eval(fmt.Sprintf("(define (g) %d)", i))
		case 1:
			eval(fmt.Sprintf("(set! g (lambda () %d))", i))
		default:
			eval(fmt.Sprintf("(define g (car `(,(lambda () %d))))", i))
		}
	}
	got := scheme.WriteString(eval(`(set! stop #t) (thread-value watcher)`))
	var reads, bad int
	if _, err := fmt.Sscanf(got, "(%d %d)", &reads, &bad); err != nil {
		t.Fatalf("watcher returned %s", got)
	}
	if reads == 0 || bad != 0 {
		t.Fatalf("watcher made %d reads, %d of them out of order or never stored", reads, bad)
	}
}
