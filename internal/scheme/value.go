// Package scheme implements STING's computation sublanguage: a Scheme
// interpreter with proper tail calls, a numeric tower of integers and
// floats, closures, multiple return values, and the full set of STING
// concurrency forms — fork-thread, create-thread, future/touch, tuple
// spaces, mutexes, streams, thread groups, speculative wait-for-one/all,
// preemption control and fluid bindings — bound to the substrate packages.
//
// The paper compiled Scheme with Orbit; an interpreter reproduces the same
// programs (Figs. 2, 3, 5 run unmodified modulo reader syntax) with the
// same thread-controller entry points: the evaluator polls the TC on a
// budget, exactly where compiled code would carry safe points.
package scheme

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Value is any Scheme datum.
type Value = any

// Symbol is an interned identifier.
type Symbol string

// Pair is a cons cell.
type Pair struct {
	Car Value
	Cdr Value
}

// emptyT is the type of the empty list.
type emptyT struct{}

// Empty is the empty list ().
var Empty = &emptyT{}

// unspecifiedT is the type of the unspecified value.
type unspecifiedT struct{}

// Unspecified is returned by forms evaluated for effect.
var Unspecified = &unspecifiedT{}

// eofT is the type of the end-of-file object.
type eofT struct{}

// EOF is the end-of-file object.
var EOF = &eofT{}

// Char is a Scheme character.
type Char rune

// SString is a mutable Scheme string.
type SString struct{ Runes []rune }

// NewSString builds a mutable string from a Go string.
func NewSString(s string) *SString { return &SString{Runes: []rune(s)} }

func (s *SString) String() string { return string(s.Runes) }

// Vector is a Scheme vector.
type Vector struct{ Items []Value }

// Closure is a user-defined procedure.
type Closure struct {
	Name   Symbol // for error messages; may be empty
	Params []Symbol
	Rest   Symbol // non-empty for variadic procedures
	Body   []Value
	Env    *Env
}

// Procedure is the call interface a foreign execution engine's procedures
// implement so the tree-walker — Apply, map, sort, thread thunks — can
// invoke them like any Closure. The bytecode VM's compiled closures are the
// canonical implementation.
type Procedure interface {
	// ApplyProc calls the procedure with already-evaluated arguments.
	ApplyProc(in *Interp, ctx *core.Context, args []Value) (Value, error)
	// ProcName answers the name used in error messages and printing
	// (empty for anonymous procedures).
	ProcName() string
}

// CompiledProc marks procedures that carry compiled code; the
// (compiled? p) primitive reports it.
type CompiledProc interface {
	Procedure
	Compiled() bool
}

// PrimFn is the Go implementation of a primitive procedure. args is lent for
// the duration of the call — the bytecode VM passes a window of its operand
// stack and reuses it as soon as the call returns — so an implementation may
// keep any element of args but never the slice itself or a reslice of it: a
// result, an error or a thread that outlives the call must hold its own copy.
type PrimFn func(in *Interp, ctx *core.Context, args []Value) (Value, error)

// FixnumFn is a primitive's kernel on int64 arguments alone, for a caller
// that keeps its integers unboxed (the bytecode VM). It is only called with
// an argument count the primitive's Min and Max allow, and args is lent as
// PrimFn's is. It answers an integer n, or a non-nil v (a comparison's
// boolean); ok false declines the call (a zero divisor), and the
// primitive's Fn answers it instead.
type FixnumFn func(args []int64) (n int64, v Value, ok bool)

// Primitive is a built-in procedure.
type Primitive struct {
	Name   Symbol
	Min    int
	Max    int // -1 = variadic
	Fn     PrimFn
	Fixnum FixnumFn // optional: Fn on int64 arguments, with no boxing
}

// MultiValues carries multiple return values (the paper notes expressions
// can yield multiple values).
type MultiValues struct{ Values []Value }

// Promise is the object created by delay and forced by force. The thunk is
// any nullary procedure value — a tree Closure or a compiled one.
type Promise struct {
	done  bool
	value Value
	thunk Value
}

// NewPromise wraps a nullary procedure as an unforced promise (the bytecode
// compiler's delay).
func NewPromise(thunk Value) *Promise { return &Promise{thunk: thunk} }

// Cons builds a pair.
func Cons(car, cdr Value) *Pair { return &Pair{Car: car, Cdr: cdr} }

// List builds a proper list.
func List(items ...Value) Value {
	var out Value = Empty
	for i := len(items) - 1; i >= 0; i-- {
		out = Cons(items[i], out)
	}
	return out
}

// ListToSlice flattens a proper list; it reports malformed (improper or
// non-list) arguments.
func ListToSlice(v Value) ([]Value, error) {
	var out []Value
	for {
		switch x := v.(type) {
		case *emptyT:
			return out, nil
		case *Pair:
			out = append(out, x.Car)
			v = x.Cdr
		default:
			return nil, fmt.Errorf("improper list ends in %s", WriteString(v))
		}
	}
}

// IsEmptyList reports whether v is the empty list () — the empty-list type
// is unexported, so compilers use this instead of a type assertion.
func IsEmptyList(v Value) bool {
	_, ok := v.(*emptyT)
	return ok
}

// IsTruthy follows Scheme: everything except #f is true.
func IsTruthy(v Value) bool {
	b, ok := v.(bool)
	return !ok || b
}

// WriteString renders a value in (write)-style notation.
func WriteString(v Value) string {
	var b strings.Builder
	writeValue(&b, v, true, make(map[*Pair]bool))
	return b.String()
}

// DisplayString renders a value in (display)-style notation.
func DisplayString(v Value) string {
	var b strings.Builder
	writeValue(&b, v, false, make(map[*Pair]bool))
	return b.String()
}

func writeValue(b *strings.Builder, v Value, write bool, seen map[*Pair]bool) {
	switch x := v.(type) {
	case nil:
		b.WriteString("#[nil]")
	case *emptyT:
		b.WriteString("()")
	case *unspecifiedT:
		b.WriteString("#[unspecified]")
	case *eofT:
		b.WriteString("#[eof]")
	case bool:
		if x {
			b.WriteString("#t")
		} else {
			b.WriteString("#f")
		}
	case int64:
		fmt.Fprintf(b, "%d", x)
	case float64:
		s := fmt.Sprintf("%g", x)
		if !strings.ContainsAny(s, ".eE") {
			s += "."
		}
		b.WriteString(s)
	case Symbol:
		b.WriteString(string(x))
	case Char:
		if write {
			switch x {
			case ' ':
				b.WriteString("#\\space")
			case '\n':
				b.WriteString("#\\newline")
			case '\t':
				b.WriteString("#\\tab")
			default:
				fmt.Fprintf(b, "#\\%c", rune(x))
			}
		} else {
			b.WriteRune(rune(x))
		}
	case *SString:
		if write {
			fmt.Fprintf(b, "%q", x.String())
		} else {
			b.WriteString(x.String())
		}
	case *Pair:
		if seen[x] {
			b.WriteString("#[cycle]")
			return
		}
		seen[x] = true
		b.WriteByte('(')
		writeValue(b, x.Car, write, seen)
		rest := x.Cdr
		for {
			switch r := rest.(type) {
			case *Pair:
				if seen[r] {
					b.WriteString(" #[cycle]")
					rest = Empty
					continue
				}
				seen[r] = true
				b.WriteByte(' ')
				writeValue(b, r.Car, write, seen)
				rest = r.Cdr
			case *emptyT:
				b.WriteByte(')')
				delete(seen, x)
				return
			default:
				b.WriteString(" . ")
				writeValue(b, rest, write, seen)
				b.WriteByte(')')
				delete(seen, x)
				return
			}
		}
	case *Vector:
		b.WriteString("#(")
		for i, item := range x.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeValue(b, item, write, seen)
		}
		b.WriteByte(')')
	case *Closure:
		if x.Name != "" {
			fmt.Fprintf(b, "#[procedure %s]", x.Name)
		} else {
			b.WriteString("#[procedure]")
		}
	case *Primitive:
		fmt.Fprintf(b, "#[primitive %s]", x.Name)
	case *MultiValues:
		for i, v := range x.Values {
			if i > 0 {
				b.WriteByte('\n')
			}
			writeValue(b, v, write, seen)
		}
	case *Promise:
		b.WriteString("#[promise]")
	case *core.Thread:
		fmt.Fprintf(b, "#[thread %d %s]", x.ID(), x.State())
	case *core.VP:
		fmt.Fprintf(b, "#[vp %d]", x.Index())
	case *core.Group:
		fmt.Fprintf(b, "#[thread-group %s]", x.Name())
	default:
		if p, ok := v.(Procedure); ok {
			if n := p.ProcName(); n != "" {
				fmt.Fprintf(b, "#[procedure %s]", n)
			} else {
				b.WriteString("#[procedure]")
			}
			return
		}
		fmt.Fprintf(b, "#[go %T %v]", v, v)
	}
}

// Equal implements Scheme equal? (deep structural equality).
func Equal(a, b Value) bool {
	if Eqv(a, b) {
		return true
	}
	switch x := a.(type) {
	case *Pair:
		y, ok := b.(*Pair)
		return ok && Equal(x.Car, y.Car) && Equal(x.Cdr, y.Cdr)
	case *Vector:
		y, ok := b.(*Vector)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *SString:
		y, ok := b.(*SString)
		return ok && x.String() == y.String()
	default:
		return false
	}
}

// Eqv implements Scheme eqv?: identity, plus value equality for numbers,
// characters and booleans.
func Eqv(a, b Value) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case Char:
		y, ok := b.(Char)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case Symbol:
		y, ok := b.(Symbol)
		return ok && x == y
	case *emptyT:
		_, ok := b.(*emptyT)
		return ok
	default:
		return a == b
	}
}
