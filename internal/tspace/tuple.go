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
	case uint8:
		return int64(x), true
	case uint16:
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

// Hash is the one hash of an immediate value: it picks a hash store's bin
// (hashStore.keyedBin mixes in a per-process seed), files waiters in HB,
// signs diagnosis events and routes a keyed tuple to its cluster shard. It
// is FNV-1a over a type-tagged encoding normalized so that values
// immediateEqual calls equal hash alike — every integer width through
// asInt64, -0 as 0 — with float32 hashed as the float64 the codec ships it
// as. Every process computes the same number. ok is false for values that cannot key a class
// (threads, aggregates, arbitrary Go types): exactly the values the wire
// codec refuses to ship.
func Hash(v core.Value) (uint64, bool) {
	if hashHook != nil {
		hashHook()
	}
	if f, ok := v.(float32); ok {
		v = float64(f)
	}
	h := uint64(fnvOffset64)
	switch x := v.(type) {
	case nil:
		h = fnvByte(h, 'n')
	case bool:
		if x {
			h = fnvByte(h, 'T')
		} else {
			h = fnvByte(h, 'F')
		}
	case float64:
		if x == 0 {
			x = 0 // -0 == 0
		}
		h = fnvUint64(fnvByte(h, 'f'), math.Float64bits(x))
	case string:
		h = fnvByte(h, 's')
		for i := 0; i < len(x); i++ {
			h = fnvByte(h, x[i])
		}
	default:
		i, ok := asInt64(v)
		if !ok {
			return 0, false
		}
		h = fnvUint64(fnvByte(h, 'i'), uint64(i))
	}
	return h, true
}

// hashHook, when a test sets it, is called once per Hash. It is nil in
// production: counting costs the hot path one nil check.
var hashHook func()

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h uint64, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

// HashKey reduces a tuple's or template's routing position to a shard key:
// the first field when there is one, the space name for arity-0 tuples
// (their only possible match is the arity-0 template, so both sides land
// on the space's home shard). ok is false when the first position cannot
// key a route — a Formal, a thread, an aggregate — meaning the operation
// must fan out.
func HashKey(space string, first core.Value, arity int) (uint64, bool) {
	if arity == 0 {
		h, _ := Hash(space)
		return h, true
	}
	if isFormal(first) {
		return 0, false
	}
	return Hash(first)
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
	for i, want := range tpl {
		v, err := resolve(ctx, tup[i])
		if err != nil {
			return nil, nil, false, err
		}
		resolved[i] = v
		if !isFormal(want) && !immediateEqual(want, v) {
			return nil, nil, false, nil
		}
	}
	return bindings(tpl, resolved), resolved, true, nil
}

// bindings maps each named formal of tpl to its value in tup, a resolved
// tuple that matches tpl. The map is never nil.
func bindings(tpl Template, tup Tuple) Bindings {
	b := Bindings{}
	for i, want := range tpl {
		if f, ok := want.(Formal); ok && f.Name != "" {
			b[f.Name] = tup[i]
		}
	}
	return b
}
