package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/testkit"
	"repro/internal/vm"
)

// newEngine builds an interpreter on a fresh virtual machine running the
// given engine. Importing this package registers "vm", which also makes it
// the default.
func newEngine(t testing.TB, engine string, procs, vps int) *scheme.Interp {
	t.Helper()
	m := testkit.VM(t, procs, vps)
	return scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine(engine))
}

func evalOn(t *testing.T, in *scheme.Interp, src, want string) {
	t.Helper()
	v, err := in.EvalString(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	if got := scheme.WriteString(v); got != want {
		t.Fatalf("eval %q = %s, want %s", src, got, want)
	}
}

// parityPrograms run under both engines and must produce identical written
// results. They cover every compiled form plus the declined ones (which
// exercise the fallback path).
var parityPrograms = []struct{ src, want string }{
	{`(+ 1 2)`, `3`},
	{`(if #f 1)`, `#[unspecified]`},
	{`(define (fact n) (if (= n 0) 1 (* n (fact (- n 1))))) (fact 10)`, `3628800`},
	{`(define (evn? n) (if (= n 0) #t (od? (- n 1))))
	  (define (od? n) (if (= n 0) #f (evn? (- n 1))))
	  (list (evn? 30001) (od? 30001))`, `(#f #t)`},
	{`(let ((x 1) (y 2)) (+ x y))`, `3`},
	{`(let* ((x 1) (y (+ x 1)) (z (* y 10))) (list x y z))`, `(1 2 20)`},
	{`(letrec ((f (lambda (n) (if (= n 0) 'done (f (- n 1)))))) (f 5))`, `done`},
	{`(let loop ((i 0) (acc '())) (if (= i 4) (reverse acc) (loop (+ i 1) (cons i acc))))`, `(0 1 2 3)`},
	{`(cond (#f 1) ((+ 1 1)) (else 3))`, `2`},
	{`(cond ((assv 2 '((1 . a) (2 . b))) => cdr) (else 'none))`, `b`},
	{`(cond (#f 1))`, `#[unspecified]`},
	{`(case (* 2 3) ((2 3 5 7) 'prime) ((1 4 6 8 9) 'composite))`, `composite`},
	{`(case 42 ((1) 'one) (else 'other))`, `other`},
	{`(case 42 ((1) 'one))`, `#[unspecified]`},
	{`(and 1 2 3)`, `3`},
	{`(and 1 #f 3)`, `#f`},
	{`(and)`, `#t`},
	{`(or #f #f 7)`, `7`},
	{`(or #f 2 (car '()))`, `2`},
	{`(or)`, `#f`},
	{`(when (> 2 1) 'a 'b)`, `b`},
	{`(when (< 2 1) 'a)`, `#[unspecified]`},
	{`(unless (< 2 1) 'a 'b)`, `b`},
	{`(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 10) s))`, `45`},
	{`(do ((i 0 (+ i 1)) (v (make-vector 3))) ((= i 3) v) (vector-set! v i (* i i)))`, `#(0 1 4)`},
	{`(define p (delay (begin 21 42))) (list (force p) (force p))`, `(42 42)`},
	{`(define x 10) (set! x (+ x 1)) x`, `11`},
	{`(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
	  (define c (counter)) (c) (c) (c)`, `3`},
	{`((lambda args args) 1 2 3)`, `(1 2 3)`},
	{`((lambda (a . rest) (list a rest)) 1 2 3)`, `(1 (2 3))`},
	{`(define (k . xs) (length xs)) (k)`, `0`},
	{`(begin)`, `#[unspecified]`},
	{`(begin 1 2 3)`, `3`},
	{`(define (f) (define a 1) (define b (+ a 1)) (* a b)) (f)`, `2`},
	{`(let ((x 5)) (define y 6) (+ x y))`, `11`},
	{`'(a b . c)`, `(a b . c)`},
	{"`(a ,(+ 1 2) ,@(list 3 4))", `(a 3 3 4)`}, // quasiquote: tree fallback
	{`(apply + 1 '(2 3))`, `6`},
	{`(map + '(1 2) '(10 20))`, `(11 22)`},
	{`(touch (future (+ 20 22)))`, `42`},
	{`(thread-value (fork-thread (* 6 7)))`, `42`},
	{`(let ((ts (make-tuple-space)))
	    (put ts '(job 1)) (put ts '(job 2))
	    (let ((a (get ts (job ?n) n))) (list a (get ts (job ?m) m))))`, `(1 2)`},
	{`(let ((ts (make-tuple-space)))
	    (put ts '(k 9))
	    (rd ts (k ?v))
	    (get ts (k ?v)))`, `(k 9)`},
	{`(let ((ts (make-tuple-space)) (tag 'job))
	    (put ts '(job 7))
	    (get ts (,tag ?n) n))`, `7`},
	{`(without-preemption (+ 1 2) (+ 3 4))`, `7`},
	{`(without-interrupts 'ok)`, `ok`},
	{`(let ((m (make-mutex))) (with-mutex m 1 2 3))`, `3`},
	{`(fluid-let ((a 1) (b 2)) (+ (fluid 'a) (fluid 'b)))`, `3`},
	{`(let ((ts (make-tuple-space)))
	    (atomic (put ts '(x 1)) (put ts '(x 2)))
	    (list (get ts (x ?a) a) (get ts (x ?b) b)))`, `(1 2)`},
	{`(define v (make-vector 2 'z)) (vector-ref v 1)`, `z`},
	{`(string-append "ab" "cd")`, `"abcd"`},
	{`(let ((l (spawn (make-tuple-space) ((+ 1 1) (+ 2 2))))) (map thread-value l))`, `(2 4)`},
	// Activations wider than a closure's inline free slots, closures over
	// more free variables than that, rest lists consed off the operand
	// stack, arguments that are themselves calls.
	{`((lambda (a b c d e f) (list f e d c b a)) 1 2 3 4 5 6)`, `(6 5 4 3 2 1)`},
	{`((lambda (a b c d e f) ((lambda () (set! e 0) (list f e d c b a)))) 1 2 3 4 5 6)`, `(6 0 4 3 2 1)`},
	{`((lambda (a b c d e . r) (list a e r)) 1 2 3 4 5 6 7)`, `(1 5 (6 7))`},
	{`((lambda (a . r) (list a r)) 1)`, `(1 ())`},
	{`(define (w a b c d e) (define x (+ a b)) (define y (* c d)) (list x y e)) (w 1 2 3 4 5)`, `(3 12 5)`},
	{`(let ((a 1) (b 2) (c 3) (d 4) (e 5))
	    (let loop ((i 0) (acc '())) (if (= i 3) (list a b c d e acc) (loop (+ i 1) (cons i acc)))))`, `(1 2 3 4 5 (2 1 0))`},
	{`(define (sum . xs) (apply + xs)) (list (sum) (sum (sum 1 2) (sum 3 (sum 4 5))))`, `(0 15)`},
	{`(call-with-values (lambda () (values 1 2 3)) list)`, `(1 2 3)`},
	// Two integers compare exactly, past the 2^53 that float64 holds; an
	// integer against a float compares as float64. The unboxed path (a
	// direct call) and the generic one (through apply) agree.
	{`(list (= 9007199254740993 9007199254740992) (eqv? 9007199254740993 9007199254740992)
	        (< 9007199254740992 9007199254740993) (>= -9223372036854775808 9223372036854775807)
	        (= 9007199254740993 9007199254740992.) (apply = '(9007199254740993 9007199254740992))
	        (apply < '(1 2 3 3)) (< 1 2 3 4))`, `(#f #f #t #f #t #f #f #t)`},
	// int64 arithmetic wraps the same way on both paths.
	{`(list (* 9223372036854775807 2) (apply * '(9223372036854775807 2))
	        (- -9223372036854775808) (quotient -9223372036854775808 -1)
	        (+ 9223372036854775807 1) (modulo -7 2) (remainder -7 2) (- 5))`,
		`(-2 -2 -9223372036854775808 -9223372036854775808 -9223372036854775808 1 -1 -5)`},
	// An exact integer quotient stays int64 past 2^53 and wraps like
	// quotient; an inexact or float step turns the result float.
	{`(list (/ 9007199254740993 1) (/ -9007199254740993 -1) (/ 18014398509481986 2 1)
	        (/ -9223372036854775808 -1) (apply / '(9007199254740993 1)) (/ 12 4 3) (/ -1))`,
		`(9007199254740993 9007199254740993 9007199254740993 -9223372036854775808 9007199254740993 1 -1)`},
	{`(list (/ 7 2) (/ 7 2 2) (/ 6 4 .5) (/ 6. 3) (/ 6 3.) (/ 2) (/ 1 3))`,
		`(3.5 1.75 3. 2. 2. 0.5 0.3333333333333333)`},
	// Integers that do not divide exactly have no integer quotient, even
	// where the float quotient of operands past 2^53 rounds to a whole one.
	{`(list (/ 9007199254740993 2) (/ 9007199254740995 3))`,
		`(4.503599627370496e+15 3.002399751580332e+15)`},
}

// TestFixnumEscapes: an integer the VM computes stays unboxed in its
// operand stack and is boxed wherever it leaves the dispatch loop. A value
// above the 0–255 Go caches and a negative one reach every such place — a
// primitive's arguments, a rest list, a closure's free values, a box by
// binding and by set!, a global by define and by set!, a case key, a
// promise, a fluid binding, a tuple template and a tuple put/get, a fork's
// VP designator and its thunk, exec's own result — plus cons,
// vector-set!, apply and values. Each site is read back by a thunk that
// map runs in an exec of its own, which has no unboxed slots: an integer
// that escaped unboxed would reach it as the sentinel, with nothing to
// unbox it from. Every site must answer the integer itself, under either
// engine.
func TestFixnumEscapes(t *testing.T) {
	const defs = `
		(define gs 0)
		(define (rest . xs) xs)
		(define (ret x) (+ x 0))
		(define (sites x)
		  (let* ((y (+ x 0)) (ts (make-tuple-space)) (v (make-vector 1 0))
		         (l (list y)) (r (rest y)) (p (cons y y)) (a (apply list y '()))
		         (cv (call-with-values (lambda () (values y y)) list))
		         (c (case y ((1000007 -1234567) y) (else 'missed)))
		         (pr (delay y))
		         (fl (fluid-let ((fz y)) (fork-thread (fluid 'fz))))
		         (th (fork-thread y y)))
		    (vector-set! v 0 y)
		    (set! gs y)
		    (put ts (list 'k y))
		    (let* ((m (rd ts (k ,y))) (w (get ts (k ?w) w)))
		      (list (lambda () (car l)) (lambda () (car r)) (lambda () y)
		            (let ((b y)) (if #f (set! b 0)) (lambda () b))
		            (let ((b 0)) (set! b y) (lambda () b))
		            (lambda () gs) (lambda () gd) (lambda () c)
		            (lambda () (force pr)) (lambda () (thread-value fl))
		            (lambda () (cadr m)) (lambda () w) (lambda () (thread-value th))
		            (lambda () (apply ret (list y))) (lambda () (car p))
		            (lambda () (vector-ref v 0)) (lambda () (car a))
		            (lambda () (cadr cv))))))`
	for _, x := range []int64{1000007, -1234567} {
		src := fmt.Sprintf(`%s
			(define gd (+ %d 0))
			(define rs (map (lambda (th) (th)) (sites %d)))
			(list (map integer? rs) rs)`, defs, x, x)
		want := fmt.Sprintf("(%s (%s))", "("+strings.TrimSpace(strings.Repeat("#t ", 18))+")",
			strings.TrimSpace(strings.Repeat(fmt.Sprint(x)+" ", 18)))
		for _, engine := range []string{"tree", "vm"} {
			in := newEngine(t, engine, 1, 2)
			evalOn(t, in, src, want)
			// exec's result, to a Go caller.
			if v, err := in.EvalString(fmt.Sprintf("(+ %d 0)", x)); err != nil || v != any(x) {
				t.Errorf("%s: toplevel (+ %d 0) = %#v, %v", engine, x, v, err)
			}
		}
	}
}

func TestEngineParity(t *testing.T) {
	tree := newEngine(t, "tree", 2, 2)
	vmIn := newEngine(t, "vm", 2, 2)
	if got := tree.EngineName(); got != "tree" {
		t.Fatalf("tree engine name = %s", got)
	}
	if got := vmIn.EngineName(); got != "vm" {
		t.Fatalf("vm engine name = %s", got)
	}
	for _, p := range parityPrograms {
		tv, terr := tree.EvalString(p.src)
		vv, verr := vmIn.EvalString(p.src)
		if (terr == nil) != (verr == nil) {
			t.Fatalf("%s: tree err=%v, vm err=%v", p.src, terr, verr)
		}
		if terr != nil {
			continue
		}
		ts, vs := scheme.WriteString(tv), scheme.WriteString(vv)
		if ts != vs {
			t.Errorf("%s: tree=%s vm=%s", p.src, ts, vs)
		}
		if vs != p.want {
			t.Errorf("%s: got %s, want %s", p.src, vs, p.want)
		}
	}
}

// stripThread drops the varying "thread N (name): " prefix the toplevel
// runner wraps errors with, leaving the engine-produced message.
func stripThread(msg string) string {
	if i := strings.Index(msg, "): "); i >= 0 && strings.HasPrefix(msg, "thread ") {
		return msg[i+3:]
	}
	return msg
}

// TestErrorParity checks the two engines produce the same error text for
// runtime failures in compiled code.
func TestErrorParity(t *testing.T) {
	tree := newEngine(t, "tree", 1, 1)
	vmIn := newEngine(t, "vm", 1, 1)
	for _, src := range []string{
		`(nosuchvar)`,
		`nosuchvar`,
		`(set! nosuch 1)`,
		`(1 2)`,
		`((lambda (x) x) 1 2)`,
		`(define (f a b) a) (f 1)`,
		`(car 1 2)`,
		`(let ((m 5)) (with-mutex m 1))`,
		`(spawn 17 (1))`,
		`(get 17 (?x))`,
	} {
		_, terr := tree.EvalString(src)
		_, verr := vmIn.EvalString(src)
		if terr == nil || verr == nil {
			t.Fatalf("%s: expected errors, tree=%v vm=%v", src, terr, verr)
		}
		if stripThread(terr.Error()) != stripThread(verr.Error()) {
			t.Errorf("%s:\n  tree: %v\n  vm:   %v", src, terr, verr)
		}
	}
}

// TestTailCallElimination runs a million-iteration tail loop and deep
// mutual recursion — constant-space under the VM's tail-call replacement.
func TestTailCallElimination(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(let loop ((i 0)) (if (= i 1000000) 'done (loop (+ i 1))))`, `done`)
	evalOn(t, in, `(define (pong n) (if (= n 0) 'pong (ping (- n 1))))
	               (define (ping n) (if (= n 0) 'ping (pong (- n 1))))
	               (ping 1000001)`, `pong`)
}

// TestDeepNonTailRecursion exercises the explicit call stack: non-tail
// recursion is heap-bounded, not Go-stack-bounded.
func TestDeepNonTailRecursion(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 100000)`, `5000050000`)
}

// TestFallbackCounts confirms the engine declines quasiquote to the
// tree-walker and counts both paths.
func TestFallbackCounts(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	c0, f0, _ := vm.Stats()
	evalOn(t, in, `(+ 1 1)`, `2`)
	c1, f1, _ := vm.Stats()
	if c1 != c0+1 || f1 != f0 {
		t.Fatalf("compiled %d→%d fallback %d→%d after compiled form", c0, c1, f0, f1)
	}
	evalOn(t, in, "`(x ,(+ 1 1))", `(x 2)`)
	c2, f2, _ := vm.Stats()
	if f2 != f1+1 {
		t.Fatalf("fallback %d→%d after quasiquote", f1, f2)
	}
	if c2 != c1 {
		t.Fatalf("compiled moved on a declined form: %d→%d", c1, c2)
	}
}

// TestEnginePrims covers (engine) and (compiled? p) on both engines.
func TestEnginePrims(t *testing.T) {
	vmIn := newEngine(t, "vm", 1, 1)
	tree := newEngine(t, "tree", 1, 1)
	evalOn(t, vmIn, `(engine)`, `vm`)
	evalOn(t, tree, `(engine)`, `tree`)
	evalOn(t, vmIn, `(define (f x) x) (compiled? f)`, `#t`)
	evalOn(t, tree, `(define (f x) x) (compiled? f)`, `#f`)
	evalOn(t, vmIn, `(compiled? car)`, `#f`)
	evalOn(t, vmIn, `(procedure? (lambda (x) x))`, `#t`)
}

// TestCompiledProcedurePrinting: compiled closures print like tree closures,
// and binding forms name anonymous procedures.
func TestCompiledProcedurePrinting(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	evalOn(t, in, `(define f (lambda (x) x)) 'ok`, `ok`)
	v, err := in.EvalString(`f`)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheme.WriteString(v); got != "#[procedure f]" {
		t.Fatalf("printed %s", got)
	}
	evalOn(t, in, `(letrec ((g (lambda () 1))) (eq? 'g (string->symbol "g")))`, `#t`)
}

// TestCrossEngineCalls: tree-created procedures call compiled ones and vice
// versa — Apply, map, and higher-order primitives all cross the boundary.
func TestCrossEngineCalls(t *testing.T) {
	in := newEngine(t, "vm", 1, 1)
	// eval runs through the tree-walker; the lambda it returns is a tree
	// closure that compiled code then applies.
	evalOn(t, in, `(define tf (eval '(lambda (x) (* x 2)))) (tf 21)`, `42`)
	// A compiled closure crossing into tree-driven apply/map.
	evalOn(t, in, `(apply (lambda (a b) (+ a b)) '(20 22))`, `42`)
	evalOn(t, in, `(map (lambda (x) (* x x)) '(1 2 3 4))`, `(1 4 9 16)`)
	// sort's comparator is a compiled closure called from Go.
	evalOn(t, in, `(length (list (lambda () 1) car))`, `2`)
}

// TestDisassemble sanity-checks the disassembler output shape.
func TestDisassemble(t *testing.T) {
	expr, err := scheme.ReadAll(`(lambda (n) (if (< n 2) n (f (- n 1))))`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := vm.Compile(expr[0])
	if err != nil {
		t.Fatal(err)
	}
	d := code.Disassemble()
	for _, want := range []string{"closure", "global", "tail-call", "return"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// TestPendingDefineDeclines: a body that reads a define slot before its
// define runs must fall back (the tree-walker resolves it to the outer
// binding), keeping the engines equivalent.
func TestPendingDefineDeclines(t *testing.T) {
	tree := newEngine(t, "tree", 1, 1)
	vmIn := newEngine(t, "vm", 1, 1)
	// The tree-walker evaluates defines sequentially, so b's init sees the
	// outer a. The compiler declines rather than guessing.
	src := `(define a 100) (define (f) (define b a) (define a 1) b) (f)`
	tv, terr := tree.EvalString(src)
	vv, verr := vmIn.EvalString(src)
	if terr != nil || verr != nil {
		t.Fatalf("tree err=%v vm err=%v", terr, verr)
	}
	if scheme.WriteString(tv) != scheme.WriteString(vv) {
		t.Fatalf("tree=%s vm=%s", scheme.WriteString(tv), scheme.WriteString(vv))
	}
}

// TestCaptureAnalysis checks what the compiler's analysis finds for each
// procedure: the free variables its closures copy, in order, and the
// locals it boxes — exactly those both captured by a nested procedure and
// assigned, a binding stored after its closure is made (letrec, named let,
// internal define, do step) counting as assigned.
func TestCaptureAnalysis(t *testing.T) {
	for _, c := range []struct {
		src         string
		path        []int // Subs indexes from the toplevel code to the procedure checked
		free, boxed string
	}{
		{`(lambda (a b) (lambda () (+ a b)))`, []int{0}, `[]`, `[]`},
		{`(lambda (a b) (lambda () (+ a b)))`, []int{0, 0}, `[a b]`, `[]`},
		{`(lambda (a) (lambda () (lambda () a)))`, []int{0, 0}, `[a]`, `[]`},
		{`(lambda (a) (lambda () (lambda () a)))`, []int{0, 0, 0}, `[a]`, `[]`},
		{`(lambda (x) (set! x 1) x)`, []int{0}, `[]`, `[]`},
		{`(lambda (n) (lambda () (set! n (+ n 1)) n))`, []int{0}, `[]`, `[n]`},
		{`(lambda (n) (lambda () (set! n (+ n 1)) n))`, []int{0, 0}, `[n]`, `[]`},
		{`(let loop ((i 0)) (if (< i 3) (loop (+ i 1)) i))`, nil, `[]`, `[loop]`},
		{`(let loop ((i 0)) (if (< i 3) (loop (+ i 1)) i))`, []int{0}, `[loop]`, `[]`},
		{`(do ((i 0 (+ i 1)) (j 0)) ((= i 3)) (lambda () (+ i j)))`, nil, `[]`, `[i]`},
		{`(lambda () (define (g) (h)) (define (h) 1) (g))`, []int{0}, `[]`, `[h]`},
		{`(lambda () (define (g) (h)) (define (h) 1) (g))`, []int{0, 0}, `[h]`, `[]`},
		{`(lambda (x y) (fork-thread (+ y x)))`, []int{0, 0}, `[y x]`, `[]`},
		{`(lambda (x) (delay x))`, []int{0, 0}, `[x]`, `[]`},
		{`(lambda (ts) (get ts (k ?v) (lambda () v)))`, []int{0, 0, 0}, `[v]`, `[]`},
		{`(lambda (x) (let ((y x)) (without-preemption (set! y 2)) y))`, []int{0}, `[]`, `[y]`},
	} {
		expr, err := scheme.ReadAll(c.src)
		if err != nil {
			t.Fatal(err)
		}
		code, err := vm.Compile(expr[0])
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		for _, i := range c.path {
			code = code.Subs[i]
		}
		if free, boxed := fmt.Sprint(code.Free), fmt.Sprint(code.Boxed); free != c.free || boxed != c.boxed {
			t.Errorf("%s at %v: free %s boxed %s, want free %s boxed %s", c.src, c.path, free, boxed, c.free, c.boxed)
		}
	}
}
