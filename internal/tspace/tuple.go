// Package tspace implements STING's first-class tuple spaces (§4.2 of the
// paper): synchronizing content-addressable memory with read (rd), remove
// (get), deposit (put) and spawn operations, templates whose ?formals
// acquire bindings from the match, threads as bona fide tuple elements
// (matched by demanding their value, which may steal them), per-bin locking
// of the presence table, and representation specialization (hash table,
// bag, set, queue, vector, shared variable, semaphore).
package tspace

import (
	"errors"
	"hash/maphash"
	"math"

	"repro/internal/core"
)

// Errors.
var (
	// ErrNoMatch is returned by the Try operations when nothing matches.
	ErrNoMatch = errors.New("tspace: no matching tuple")
	// ErrBadTemplate is returned when a template is not supported by the
	// space's specialized representation.
	ErrBadTemplate = errors.New("tspace: template unsupported by this representation")
	// ErrNeedsThread is returned by a call made with no context that would
	// have to demand a thread element's value. Nothing was taken or
	// stored; the same call from a thread can proceed.
	ErrNeedsThread = errors.New("tspace: demanding a thread element needs a thread")
)

// Tuple is an ordered group of values. Threads may appear as elements; a
// match demands their value (stealing scheduled ones, blocking on
// evaluating ones).
type Tuple []core.Value

// Formal marks a template position that acquires a binding from the match
// (the paper's ?x joinders). Name is how the binding is reported.
type Formal struct{ Name string }

// F is shorthand for Formal{name}.
func F(name string) Formal { return Formal{Name: name} }

// Bindings maps formal names to the values they acquired.
type Bindings map[string]core.Value

// Template is a tuple pattern: a mix of concrete values and Formals.
type Template []core.Value

// arity helpers

func isFormal(v core.Value) bool {
	_, ok := v.(Formal)
	return ok
}

var hashSeed = maphash.MakeSeed()

// hashValue hashes immediate values; ok is false for values the index
// cannot key on (threads, aggregates), which fall into the wildcard class.
// Values immediateEqual calls equal hash alike — every integer width through
// asInt64, -0 as 0 — so a differing hash proves two keyed values unequal.
func hashValue(v core.Value) (uint64, bool) {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	if i, ok := asInt64(v); ok {
		h.WriteString("i")
		writeUint(&h, uint64(i))
		return h.Sum64(), true
	}
	switch x := v.(type) {
	case nil:
		h.WriteString("nil")
	case bool:
		if x {
			h.WriteString("#t")
		} else {
			h.WriteString("#f")
		}
	case float64:
		h.WriteString("f")
		if x == 0 {
			x = 0 // -0 == 0
		}
		writeUint(&h, math.Float64bits(x))
	case string:
		h.WriteString("s")
		h.WriteString(x)
	default:
		return 0, false
	}
	return h.Sum64(), true
}

func writeUint(h *maphash.Hash, u uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

// immediateEqual compares two non-thread values for match purposes.
func immediateEqual(a, b core.Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case string:
		y, ok := b.(string)
		return ok && x == y
	case int64:
		if y, ok := b.(int64); ok {
			return x == y
		}
	}
	// Normalize the common numeric cases so int and int64 interoperate.
	if ai, ok := asInt64(a); ok {
		bi, ok := asInt64(b)
		return ok && ai == bi
	}
	return b != nil && dynamicEqual(a, b)
}

// dynamicEqual is == on the interface values, for the types immediateEqual
// has no case for.
func dynamicEqual(a, b core.Value) (eq bool) {
	defer func() { _ = recover() }() // non-comparable dynamic types never match
	return a == b
}

func asInt64(v core.Value) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint64:
		return int64(x), true
	default:
		return 0, false
	}
}

// resolve demands the value of thread elements so matching sees immediate
// data; other values pass through. The demand steals scheduled threads and
// blocks on evaluating ones — the paper's quasi-demand-driven fine-grained
// synchronization on tuple data. With no context there is nothing to steal
// or block with, so a thread element yields ErrNeedsThread.
func resolve(ctx *core.Context, v core.Value) (core.Value, error) {
	if t, ok := v.(*core.Thread); ok {
		if ctx == nil {
			return nil, ErrNeedsThread
		}
		return ctx.Value1(t)
	}
	return v, nil
}

// matchTuple matches template against tuple, demanding thread elements as
// needed. On success it returns the bindings (never nil) and the fully
// resolved tuple.
func matchTuple(ctx *core.Context, tpl Template, tup Tuple) (Bindings, Tuple, bool, error) {
	if len(tpl) != len(tup) {
		return nil, nil, false, nil
	}
	resolved := make(Tuple, len(tup))
	b := Bindings{}
	for i, want := range tpl {
		got := tup[i]
		if f, ok := want.(Formal); ok {
			v, err := resolve(ctx, got)
			if err != nil {
				return nil, nil, false, err
			}
			resolved[i] = v
			if f.Name != "" {
				b[f.Name] = v
			}
			continue
		}
		v, err := resolve(ctx, got)
		if err != nil {
			return nil, nil, false, err
		}
		resolved[i] = v
		if !immediateEqual(want, v) {
			return nil, nil, false, nil
		}
	}
	return b, resolved, true, nil
}
