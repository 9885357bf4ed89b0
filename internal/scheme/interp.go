package scheme

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/persist"
	"repro/internal/tspace"
)

// Interp is a STING Scheme system bound to one virtual machine. The global
// environment is shared by every thread the interpreter creates —
// the VM's single address space.
type Interp struct {
	vm     *core.VM
	global *Env
	out    io.Writer
	store  *persist.Store   // long-lived persistent roots (§2 program model)
	spaces *tspace.Registry // named spaces for (named-space ...)/(space-depth ...)
	diag   *diag.Diagnoser  // runtime diagnoser behind (diag-report), may be nil

	// toplevelOpts are extra thread options applied to every toplevel
	// thread EvalString spawns (e.g. a root span context from the CLI).
	toplevelOpts []core.ThreadOption

	// engine is the selected execution engine for toplevel forms; nil runs
	// everything through the tree-walker. engineName holds the WithEngine
	// selection until New resolves it.
	engine     Engine
	engineName string

	gensyms atomic.Uint64
}

// Option configures an interpreter.
type Option func(*Interp)

// WithOutput redirects (display ...) and friends.
func WithOutput(w io.Writer) Option { return func(in *Interp) { in.out = w } }

// WithSpaces shares a named-space registry (e.g. a fabric server's) with
// the interpreter's (named-space ...) and (space-depth ...) forms.
func WithSpaces(r *tspace.Registry) Option { return func(in *Interp) { in.spaces = r } }

// WithDiag shares a running runtime diagnoser with the interpreter's
// (diag-report) form; without it the form answers a waiters-only view.
func WithDiag(d *diag.Diagnoser) Option { return func(in *Interp) { in.diag = d } }

// New creates an interpreter on vm with the full standard and STING
// environment installed.
func New(vm *core.VM, opts ...Option) *Interp {
	in := &Interp{vm: vm, global: NewEnv(nil), out: os.Stdout,
		store: persist.NewStore(vm.Space())}
	for _, o := range opts {
		o(in)
	}
	if in.spaces == nil {
		in.spaces = tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	}
	installPrimitives(in)
	installConcurrency(in)
	installIO(in)
	installStorage(in)
	installStrings(in)
	installRemote(in)
	installObs(in)
	installTxn(in)
	installEngine(in)
	in.initEngine()
	if err := in.loadPrelude(); err != nil {
		panic(fmt.Sprintf("scheme: prelude failed: %v", err))
	}
	return in
}

// VM returns the underlying virtual machine.
func (in *Interp) VM() *core.VM { return in.vm }

// Global returns the global environment.
func (in *Interp) Global() *Env { return in.global }

// Store returns the interpreter's persistent-root table.
func (in *Interp) Store() *persist.Store { return in.store }

// Spaces returns the interpreter's named-space registry.
func (in *Interp) Spaces() *tspace.Registry { return in.spaces }

// SetToplevelOptions installs extra thread options applied to every
// toplevel thread EvalString spawns from now on. The CLI uses it to run
// whole programs under one root span context (set after construction so
// the prelude load stays untraced).
func (in *Interp) SetToplevelOptions(opts ...core.ThreadOption) { in.toplevelOpts = opts }

// EvalString parses and evaluates src on a fresh root STING thread,
// returning the value of the last form.
func (in *Interp) EvalString(src string) (Value, error) {
	data, err := ReadAll(src)
	if err != nil {
		return nil, err
	}
	opts := append(append([]core.ThreadOption{}, in.toplevelOpts...), core.WithName("scheme-toplevel"))
	vals, err := in.vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		var out Value = Unspecified
		for _, d := range data {
			out, err = in.evalToplevel(ctx, d)
			if err != nil {
				return nil, err
			}
		}
		return []core.Value{out}, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return oneValue(vals), nil
}

// EvalIn parses and evaluates src on an existing thread context.
func (in *Interp) EvalIn(ctx *core.Context, src string) (Value, error) {
	data, err := ReadAll(src)
	if err != nil {
		return nil, err
	}
	var out Value = Unspecified
	for _, d := range data {
		out, err = in.evalToplevel(ctx, d)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadPrelude installs library procedures written in Scheme itself.
func (in *Interp) loadPrelude() error {
	_, err := in.EvalString(prelude)
	return err
}

// prelude defines the derived procedures that are simplest in Scheme.
const prelude = `
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))
(define (cdddr p) (cdr (cddr p)))
(define (cadddr p) (car (cdddr p)))
(define (list-tail l k) (if (zero? k) l (list-tail (cdr l) (- k 1))))
(define (list-ref l k) (car (list-tail l k)))
(define (last-pair l) (if (pair? (cdr l)) (last-pair (cdr l)) l))
(define (1+ n) (+ n 1))
(define (1- n) (- n 1))
(define (-1+ n) (- n 1))
(define (first l) (car l))
(define (second l) (cadr l))
(define (third l) (caddr l))
(define (assq key al)
  (cond ((null? al) #f)
        ((eq? (caar al) key) (car al))
        (else (assq key (cdr al)))))
(define (assv key al)
  (cond ((null? al) #f)
        ((eqv? (caar al) key) (car al))
        (else (assv key (cdr al)))))
(define (assoc key al)
  (cond ((null? al) #f)
        ((equal? (caar al) key) (car al))
        (else (assoc key (cdr al)))))
(define (memq x l)
  (cond ((null? l) #f)
        ((eq? (car l) x) l)
        (else (memq x (cdr l)))))
(define (memv x l)
  (cond ((null? l) #f)
        ((eqv? (car l) x) l)
        (else (memv x (cdr l)))))
(define (member x l)
  (cond ((null? l) #f)
        ((equal? (car l) x) l)
        (else (member x (cdr l)))))
(define (filter pred l)
  (cond ((null? l) '())
        ((pred (car l)) (cons (car l) (filter pred (cdr l))))
        (else (filter pred (cdr l)))))
(define (fold-left f acc l)
  (if (null? l) acc (fold-left f (f acc (car l)) (cdr l))))
(define (fold-right f init l)
  (if (null? l) init (f (car l) (fold-right f init (cdr l)))))
(define (reduce f init l) (fold-left f init l))
(define (iota n . base)
  (let ((b (if (null? base) 0 (car base))))
    (let loop ((i (- n 1)) (acc '()))
      (if (< i 0) acc (loop (- i 1) (cons (+ b i) acc))))))
(define (force p) (force-promise p))
(define (mod a b) (modulo a b))
(define (print . xs) (for-each display xs) (newline))
(define (touch t) (thread-value t))
(define (thread-unblock t) (thread-run t))
(define (make-integer-stream limit) (integer-stream limit))
(define (hd s) (stream-hd s))
(define (attach x s) (stream-attach s x) s)
(define (rest s) (stream-rest s))
(define (void) (if #f #f))
(define (catch-errors handler thunk) (call-with-error-handler handler thunk))
(define (ignore-errors thunk) (call-with-error-handler (lambda (e) #f) thunk))
`
