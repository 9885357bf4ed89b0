package tspace

import (
	"math"

	"repro/internal/core"
)

// Stable hashing for cluster routing. The in-process presence table hashes
// with a per-process maphash seed (hash.go), which is deliberately
// unpredictable; routing a keyed tuple across stingd nodes instead needs a
// hash every process computes identically, so clients, servers, and tools
// agree on which shard owns a key. Hash is FNV-1a over a type-tagged
// canonical encoding of the value, normalized as matching normalizes —
// integers through asInt64, -0 as 0 — so Put(…int(5)…) and a template
// carrying int64(5) route to the same shard on every machine.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvUint64(h uint64, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

// Hash returns a deterministic, process-independent hash of an immediate
// value, for keying tuples to cluster shards. ok is false for values that
// cannot key a route (threads, aggregates, arbitrary Go types) — exactly
// the values the wire codec refuses to ship.
func Hash(v core.Value) (uint64, bool) {
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
	case float32:
		return Hash(float64(x))
	case float64:
		if x == 0 {
			x = 0 // -0 == 0: both must route to one shard
		}
		h = fnvByte(h, 'f')
		h = fnvUint64(h, math.Float64bits(x))
	case string:
		h = fnvByte(h, 's')
		h = fnvString(h, x)
	default:
		i, ok := asInt64(v)
		if !ok {
			return 0, false
		}
		h = fnvByte(h, 'i')
		h = fnvUint64(h, uint64(i))
	}
	return h, true
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
