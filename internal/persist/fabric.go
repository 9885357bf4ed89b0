package persist

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/tspace"
)

// Fabric persistence: a registry's passive tuples snapshot into a Store as
// plain persistent roots — "space.<name>" holds the tuples, "kind.<name>"
// the representation — so the existing gob stream format carries a whole
// daemon's spaces. Active tuples (thread elements) and tuples holding
// non-persistable payloads stay behind, the same discipline the wire codec
// applies: computation does not outlive its address space, data does.

// SnapshotRegistry binds every space's passive tuples into s. Every
// representation lists them in a form Put restores: a semaphore one empty
// tuple per token, a vector its full slots as [index, value]. It returns the
// space and tuple counts captured.
func SnapshotRegistry(reg *tspace.Registry, s *Store) (spaces, tuples int, err error) {
	for _, name := range reg.Names() {
		ts, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		tups := ts.(tspace.Snapshotter).PassiveTuples() // every registered space is local
		vals := make([]core.Value, 0, len(tups))
		for _, tup := range tups {
			v := make([]core.Value, len(tup))
			copy(v, tup)
			if validate(core.Value(v)) != nil {
				continue // process-local payload; stays behind
			}
			vals = append(vals, core.Value(v))
		}
		if err := s.Put("kind."+name, ts.Kind().String()); err != nil {
			return spaces, tuples, err
		}
		if err := s.Put("space."+name, vals); err != nil {
			return spaces, tuples, err
		}
		spaces++
		tuples += len(vals)
	}
	return spaces, tuples, nil
}

// RestoreRegistry re-deposits a snapshot's tuples into reg, recreating
// each space with its recorded representation (hash when the kind root is
// missing or unreadable). Deposits run on the caller's STING thread.
func RestoreRegistry(ctx *core.Context, reg *tspace.Registry, s *Store) (spaces, tuples int, err error) {
	roots := s.Names()
	sort.Strings(roots)
	for _, root := range roots {
		name, ok := strings.CutPrefix(root, "space.")
		if !ok {
			continue
		}
		kind := tspace.KindHash
		if kv, kerr := s.Get("kind." + name); kerr == nil {
			if ks, ok := kv.(string); ok {
				if k, perr := tspace.ParseKind(ks); perr == nil {
					kind = k
				}
			}
		}
		ts, oerr := reg.Open(name, kind, tspace.Config{})
		if oerr != nil {
			return spaces, tuples, oerr
		}
		v, gerr := s.Get(root)
		if gerr != nil {
			continue
		}
		vals, ok := v.([]core.Value)
		if !ok {
			continue
		}
		for _, tv := range vals {
			tup, ok := tv.([]core.Value)
			if !ok {
				continue
			}
			if perr := ts.Put(ctx, tspace.Tuple(tup)); perr != nil {
				return spaces, tuples, perr
			}
			tuples++
		}
		spaces++
	}
	return spaces, tuples, nil
}
