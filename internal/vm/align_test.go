package vm_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/testkit"
)

// TestPreemptionUnderVM: on a single VP with a tiny quantum, a compiled
// spin loop must still be preempted at the VM's safepoints — otherwise the
// forked thread could never set the flag and the loop would spin forever.
// Both the named-let (tail-call safepoint) and do-loop (backward-branch
// safepoint) shapes run.
func TestPreemptionUnderVM(t *testing.T) {
	for _, loop := range []struct{ name, src string }{
		{"tail-call", `
			(define done #f)
			(fork-thread (set! done #t))
			(let spin ((n 0)) (if done n (spin (+ n 1))))`},
		{"backward-branch", `
			(define done2 #f)
			(fork-thread (set! done2 #t))
			(do ((n 0 (+ n 1))) (done2 n))`},
	} {
		t.Run(loop.name, func(t *testing.T) {
			m := testkit.VMWith(t, 1, core.VMConfig{
				VPs: 1, VP: core.VPConfig{DefaultQuantum: time.Millisecond}})
			in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
			v, err := in.EvalString(loop.src)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := v.(int64); !ok || n < 0 {
				t.Fatalf("spin result = %s", scheme.WriteString(v))
			}
		})
	}
}

// TestSafepointCounters: running compiled code drives the TCB poll counter —
// the same budget the tree-walker charges — so quantum checks see the same
// entry points under either engine.
func TestSafepointCounters(t *testing.T) {
	m := testkit.VM(t, 1, 1)
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
	var before, after uint64
	_, err := m.Run(func(ctx *core.Context) ([]core.Value, error) {
		before = ctx.TCB().Polls()
		if _, err := in.EvalIn(ctx, `(let loop ((i 0)) (if (= i 100000) 'done (loop (+ i 1))))`); err != nil {
			return nil, err
		}
		after = ctx.TCB().Polls()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100k iterations × 2+ safepoints each at budget 256 ≳ 700 polls.
	if after-before < 100 {
		t.Fatalf("polls advanced by %d; VM safepoints are not feeding the budget", after-before)
	}
}

// TestStealUnderVM: a delayed future created by compiled code is stolen by
// the toucher instead of context-switching (the §4.1.1 optimization) — the
// steal counter moves and the value is right.
func TestStealUnderVM(t *testing.T) {
	m := testkit.VM(t, 1, 1)
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
	steals0 := m.Stats().Steals
	v, err := in.EvalString(`(touch (create-thread (* 6 7)))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheme.WriteString(v); got != "42" {
		t.Fatalf("touch = %s", got)
	}
	if m.Stats().Steals == steals0 {
		t.Fatal("no steal recorded; delayed thread was scheduled instead")
	}
}

// TestFluidInheritanceUnderVM: fluid-let extents compiled as nested OpFluid
// thunks behave like the tree-walker's — visible in the body, inherited by
// forked threads, restored after.
func TestFluidInheritanceUnderVM(t *testing.T) {
	in := newEngine(t, "vm", 2, 2)
	evalOn(t, in, `(fluid-let ((who 'parent))
	                 (thread-value (fork-thread (fluid 'who))))`, `parent`)
	evalOn(t, in, `(fluid-let ((a 1))
	                 (fluid-let ((b (+ (fluid 'a) 1)))
	                   (list (fluid 'a) (fluid 'b))))`, `(1 2)`)
	evalOn(t, in, `(fluid-let ((x 'in)) (fluid 'x)) (fluid 'x 'gone)`, `gone`)
}

// TestSpanInheritanceUnderVM mirrors the tree-walker's trace test: under a
// root span, compiled toplevel forms see the trace ID, forked threads
// inherit it, and (with-span ...) records a child span.
func TestSpanInheritanceUnderVM(t *testing.T) {
	m := testkit.VM(t, 1, 2)
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))

	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	root := obs.StartSpan(obs.SpanContext{}, "vm-root", obs.SpanInternal)
	in.SetToplevelOptions(core.WithSpanContext(root.Context()))

	v, err := in.EvalString(`(current-trace-id)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheme.WriteString(v); !strings.Contains(got, root.Context().Trace.String()) {
		t.Fatalf("(current-trace-id) = %s, want trace %s", got, root.Context().Trace)
	}
	evalOn(t, in, `(string=? (current-trace-id) (thread-value (fork-thread (current-trace-id))))`, `#t`)
	evalOn(t, in, `(with-span "vm-phase" (lambda () 7))`, `7`)
	root.End()
	in.SetToplevelOptions()
	found := false
	for _, s := range buf.Drain() {
		if s.Name == "vm-phase" && s.Trace == root.Context().Trace {
			found = true
		}
	}
	if !found {
		t.Fatal(`(with-span "vm-phase" ...) span not recorded under the VM engine`)
	}
}

// TestTxnIntrospectionUnderVM: (atomic ...) compiled to OpAtomic carries the
// same fluid-table transaction marker, so in-txn?, txn-stats and abort work
// identically.
func TestTxnIntrospectionUnderVM(t *testing.T) {
	in := newEngine(t, "vm", 1, 2)
	evalOn(t, in, `(txn-active?)`, `#f`)
	evalOn(t, in, `(atomic (txn-active?))`, `#t`)
	evalOn(t, in, `(atomic (atomic (txn-active?)))`, `#t`) // flattened nesting
	evalOn(t, in, `(let ((ts (make-tuple-space)))
	                 (atomic (put ts '(x 1)) (txn-abort))
	                 (tuple-space-size ts))`, `0`)
	// (txn-stats) → (commits conflicts retries aborts), all integers.
	evalOn(t, in, `(= 4 (length (txn-stats)))`, `#t`)
	evalOn(t, in, `(let ((ts (make-tuple-space)) (before (car (txn-stats))))
	                 (atomic (put ts '(y 1)))
	                 (> (car (txn-stats)) before))`, `#t`)
}

// TestDiagReportUnderVM: the diagnoser prims answer the same shapes when the
// calling forms were compiled.
func TestDiagReportUnderVM(t *testing.T) {
	m := testkit.VM(t, 1, 2)
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
	evalOn(t, in, `(let ((r (diag-report)))
		(and (pair? (assq 'waiters r)) (pair? (assq 'stalls r))
		     (pair? (assq 'deadlocks r)) (pair? (assq 'hot-keys r))))`, `#t`)

	d := diag.New(diag.Config{
		Node:    "vm-test",
		Waiters: []diag.WaiterSource{in.Spaces()},
		VM:      m,
	})
	d.Start()
	defer d.Stop()
	withDiag := scheme.New(m, scheme.WithOutput(&strings.Builder{}),
		scheme.WithEngine("vm"), scheme.WithSpaces(in.Spaces()), scheme.WithDiag(d))
	evalOn(t, withDiag, `(begin
		(put (named-space "orders") '(sku 42))
		(put (named-space "orders") '(sku 42))
		(get (named-space "orders") (sku ?n) n)
		#t)`, `#t`)
	evalOn(t, withDiag, `(cadr (assq 'node (diag-report)))`, `"vm-test"`)
	evalOn(t, withDiag, `(let loop ((hot (cdr (assq 'hot-keys (diag-report)))))
		(cond ((null? hot) #f)
		      ((equal? (cadr (assq 'space (car hot))) "orders") #t)
		      (else (loop (cdr hot)))))`, `#t`)
}

// TestWithoutPreemptionUnderVM: with a long-expired quantum, OpNoPreempt's
// body runs to completion and the deferred preemption is honoured when the
// extent exits — observable as the preempt counter advancing.
func TestWithoutPreemptionUnderVM(t *testing.T) {
	m := testkit.VMWith(t, 1, core.VMConfig{
		VPs: 1, VP: core.VPConfig{DefaultQuantum: time.Nanosecond}})
	in := scheme.New(m, scheme.WithOutput(&strings.Builder{}), scheme.WithEngine("vm"))
	_, err := m.Run(func(ctx *core.Context) ([]core.Value, error) {
		before := ctx.TCB().Preempts()
		v, err := in.EvalIn(ctx, `(without-preemption (do ((i 0 (+ i 1))) ((= i 100000) i)))`)
		if err != nil {
			return nil, err
		}
		if got := scheme.WriteString(v); got != "100000" {
			t.Errorf("body = %s", got)
		}
		if ctx.TCB().Preempts() == before {
			t.Error("deferred preemption never honoured after without-preemption")
		}
		if ctx.TCB().PreemptPending() {
			t.Error("preemption still pending after the extent exited")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evalOn(t, in, `(without-interrupts (* 2 3))`, `6`)
}

// TestCaptureSemantics pins, under both engines, the cases where turning
// frames into flat closures could silently change what a program means: a
// binding that is stored after a closure has copied it (do steps, letrec,
// named let, internal defines), assigned variables shared by closures, and
// a lexical read by a thread or a promise after the toplevel assigns it.
func TestCaptureSemantics(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"closures made in a do loop share its one binding",
			`(do ((i 0 (+ i 1)) (fs '() (cons (lambda () i) fs)))
			     ((= i 3) (map (lambda (f) (f)) fs)))`, `(3 3 3)`},
		{"closures made in a named let each see their own call's binding",
			`(let loop ((i 0) (fs '()))
			   (if (= i 3) (map (lambda (f) (f)) fs) (loop (+ i 1) (cons (lambda () i) fs))))`, `(2 1 0)`},
		{"a counter's closures share one assigned variable",
			`(define (make-counter)
			   (let ((n 0)) (cons (lambda () (set! n (+ n 1)) n) (lambda () n))))
			 (define c (make-counter))
			 ((car c)) ((car c))
			 (list ((cdr c)) ((car c)) ((cdr c)))`, `(2 3 3)`},
		{"mutually recursive letrec",
			`(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
			          (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
			   (list (even? 10) (odd? 10) (even? 7)))`, `(#t #f #f)`},
		{"a nested lambda calls an internal define that comes after it",
			`(define (f) (define (g) (h 2)) (define (h x) (* x 21)) (g)) (f)`, `42`},
		{"a delayed thread reads the lexical when it runs",
			`(let ((x 1)) (let ((t (create-thread x))) (set! x 2) (thread-value t)))`, `2`},
		{"a promise reads the lexical when it is forced",
			`(let ((x 1)) (let ((p (delay (* x 10)))) (set! x 5) (force p)))`, `50`},
	} {
		for _, engine := range []string{"tree", "vm"} {
			t.Run(engine+"/"+c.name, func(t *testing.T) {
				evalOn(t, newEngine(t, engine, 1, 2), c.src, c.want)
			})
		}
	}
}

// TestCrossThreadLexicalSet: two threads assign one captured lexical, each
// its own values, while reading it. A captured and assigned variable is a
// box whose loads and stores are atomic, so `go test -race` is clean, and
// once both are joined the variable holds one thread's last value.
func TestCrossThreadLexicalSet(t *testing.T) {
	in := newEngine(t, "vm", 2, 2)
	evalOn(t, in, `
		(let ((x 0))
		  (define (writer sign)
		    (do ((i 0 (+ i 1)) (seen 0 (if (integer? x) (+ seen 1) seen)))
		        ((= i 2000) seen)
		      (set! x (* sign i))))
		  (let ((a (fork-thread (writer 1))) (b (fork-thread (writer -1))))
		    (list (thread-value a) (thread-value b) (or (= x 1999) (= x -1999)))))`,
		`(2000 2000 #t)`)
}
