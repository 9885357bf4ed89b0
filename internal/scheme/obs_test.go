package scheme

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/tspace"
)

// TestVPStatsPrim: (vp-stats) returns the calling thread's VP counter
// assoc list, and the counters are live — dispatches grow once a thread
// has actually run.
func TestVPStatsPrim(t *testing.T) {
	in := newInterp(t, 1, 1)
	evalOK(t, in, `(let ((s (vp-stats))) (and (pair? s) (pair? (assq 'vp s)) (pair? (assq 'dispatches s))))`, "#t")
	evalOK(t, in, `(>= (cadr (assq 'dispatches (vp-stats))) 1)`, "#t")
	// The counters are cumulative: a later snapshot never regresses.
	evalOK(t, in, `
		(let ((before (cadr (assq 'dispatches (vp-stats)))))
		  (future 1)
		  (>= (cadr (assq 'dispatches (vp-stats))) before))`, "#t")
}

// TestNamedSpacePrims: (named-space ...) opens registry-backed spaces
// usable with the ordinary forms, and (space-depth ...) observes them.
func TestNamedSpacePrims(t *testing.T) {
	in := newInterp(t, 1, 2)
	evalOK(t, in, `(tuple-space? (named-space "jobs"))`, "#t")
	evalOK(t, in, `(space-depth "jobs")`, "0")
	evalOK(t, in, `(begin (put (named-space "jobs") '(job 1)) (put (named-space "jobs") '(job 2)) (space-depth "jobs"))`, "2")
	// The same name yields the same space; a different name is fresh.
	evalOK(t, in, `(space-depth "other")`, "0")
	evalOK(t, in, `(tuple-space? (named-space "q" 'queue))`, "#t")
	evalErr(t, in, `(named-space "x" 'nonsense)`) // bad kind opens nothing
	evalOK(t, in, `(space-names)`, `("jobs" "other" "q")`)
}

// TestTracePrims: (current-trace-id) answers #f untraced and the trace's
// hex ID once the toplevel runs under a root span; (with-span ...) runs
// its thunk under a child span (recorded on End) and the body evaluates
// either way.
func TestTracePrims(t *testing.T) {
	in := newInterp(t, 1, 2)
	evalOK(t, in, `(current-trace-id)`, "#f")
	evalOK(t, in, `(with-span "untraced" (lambda () (* 6 7)))`, "42")

	buf := obs.NewSpanRing(64)
	obs.SetSpanSink(buf.Record)
	defer obs.SetSpanSink(nil)
	root := obs.StartSpan(obs.SpanContext{}, "scheme-root", obs.SpanInternal)
	in.SetToplevelOptions(core.WithSpanContext(root.Context()))

	v, err := in.EvalString(`(current-trace-id)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := WriteString(v); !strings.Contains(got, root.Context().Trace.String()) {
		t.Fatalf("(current-trace-id) = %s, want trace %s", got, root.Context().Trace)
	}
	// Forked threads inherit the context: the child answers the same ID.
	evalOK(t, in, `(string=? (current-trace-id) (thread-value (fork-thread (current-trace-id))))`, "#t")

	evalOK(t, in, `(with-span "phase" (lambda () 7))`, "7")
	root.End()
	in.SetToplevelOptions()
	found := false
	for _, s := range buf.Drain() {
		if s.Name == "phase" && s.Trace == root.Context().Trace {
			found = true
		}
	}
	if !found {
		t.Fatal("(with-span \"phase\" ...) span not recorded")
	}
}

// TestDiagReportPrim: (diag-report) answers the waiters-only fallback
// shape without a diagnoser, and the full analysis — hot keys included —
// with one wired in via WithDiag.
func TestDiagReportPrim(t *testing.T) {
	in := newInterp(t, 1, 2)
	// Fallback: same shape, empty analysis sections.
	evalOK(t, in, `(let ((r (diag-report)))
		(and (pair? (assq 'waiters r)) (pair? (assq 'stalls r))
		     (pair? (assq 'deadlocks r)) (pair? (assq 'hot-keys r))))`, "#t")
	evalOK(t, in, `(cadr (assq 'waiters (diag-report)))`, "0")

	d := diag.New(diag.Config{
		Node:    "scheme-test",
		Waiters: []diag.WaiterSource{in.Spaces()},
		VM:      in.VM(),
	})
	d.Start()
	defer d.Stop()
	withDiag := New(in.VM(), WithSpaces(in.Spaces()), WithDiag(d))
	evalOK(t, withDiag, `(begin
		(put (named-space "orders") '(sku 42))
		(put (named-space "orders") '(sku 42))
		(get (named-space "orders") (sku ?n) n)
		#t)`, "#t")
	evalOK(t, withDiag, `(cadr (assq 'node (diag-report)))`, `"scheme-test"`)
	evalOK(t, withDiag, `(let loop ((hot (cdr (assq 'hot-keys (diag-report)))))
		(cond ((null? hot) #f)
		      ((equal? (cadr (assq 'space (car hot))) "orders") #t)
		      (else (loop (cdr hot)))))`, "#t")
}

// TestWithSpacesSharesRegistry: a registry handed in via WithSpaces is
// what the prims see — the stingd-embedding scenario.
func TestWithSpacesSharesRegistry(t *testing.T) {
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	vm := newInterp(t, 1, 1).VM() // reuse a machine-backed VM
	in := New(vm, WithSpaces(reg))
	if in.Spaces() != reg {
		t.Fatal("WithSpaces registry not installed")
	}
	if _, err := in.EvalString(`(put (named-space "shared") '(x))`); err != nil {
		t.Fatal(err)
	}
	if got := reg.OpenDefault("shared").Len(); got != 1 {
		t.Fatalf("registry depth = %d, want 1 (prims used a different registry)", got)
	}
}
