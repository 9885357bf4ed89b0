package tspace

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
)

// ErrKindMismatch is returned by Registry.Open when a space already exists
// under the name with a different representation.
var ErrKindMismatch = errors.New("tspace: space exists with a different representation")

// Registry names tuple spaces so they can be shared across modules and —
// through the remote fabric — across processes. Linda semantics apply:
// referring to a space brings it into existence, so a Get on a name nobody
// has Put to simply blocks.
type Registry struct {
	mu     sync.Mutex
	spaces map[string]localSpace

	// DefaultKind and DefaultConfig shape implicitly created spaces.
	defaultKind Kind
	defaultCfg  Config
}

// NewRegistry creates a registry whose implicitly created spaces use the
// hash representation with cfg.
func NewRegistry(kind Kind, cfg Config) *Registry {
	return &Registry{
		spaces:      make(map[string]localSpace),
		defaultKind: kind,
		defaultCfg:  cfg,
	}
}

// Open returns the space registered under name, creating it with the given
// representation when absent. Opening an existing space with a different
// kind returns ErrKindMismatch — representations are a creation-time
// commitment (§4.2's specialization is static).
func (r *Registry) Open(name string, kind Kind, cfg Config) (TupleSpace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts, ok := r.spaces[name]; ok {
		if ts.Kind() != kind {
			return nil, fmt.Errorf("%w: %q is %s, requested %s",
				ErrKindMismatch, name, ts.Kind(), kind)
		}
		return ts, nil
	}
	ts := newFront(kind, cfg, name)
	r.spaces[name] = ts
	return ts, nil
}

// OpenDefault returns the space registered under name, creating it with
// the registry's default representation when absent. Unlike Open it never
// fails: an existing space is returned whatever its kind, which is the
// behaviour remote clients want — the server owns representation choice.
func (r *Registry) OpenDefault(name string) TupleSpace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts, ok := r.spaces[name]; ok {
		return ts
	}
	ts := newFront(r.defaultKind, r.defaultCfg, name)
	r.spaces[name] = ts
	return ts
}

// Lookup finds a registered space without creating one.
func (r *Registry) Lookup(name string) (TupleSpace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, ok := r.spaces[name]
	return ts, ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.spaces))
	for n := range r.spaces {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// each calls f on every registered space outside the registry lock (a
// space's accessors take their own locks), so a scrape never stalls fabric
// traffic.
func (r *Registry) each(f func(name string, ts localSpace)) {
	r.mu.Lock()
	spaces := maps.Clone(r.spaces)
	r.mu.Unlock()
	for name, ts := range spaces {
		f(name, ts)
	}
}

// Depths snapshots each space's Len, keyed by name.
func (r *Registry) Depths() map[string]int {
	out := make(map[string]int)
	r.each(func(name string, ts localSpace) { out[name] = ts.Len() })
	return out
}

// WaiterInfos snapshots every registered space's blocked table — the
// stall sampler's view of who is parked where, on what key, since when.
func (r *Registry) WaiterInfos() []WaiterInfo {
	var out []WaiterInfo
	r.each(func(_ string, ts localSpace) { out = append(out, ts.DiagWaiters()...) })
	return out
}

// Waiters sums the blocked-table sizes of every registered space.
func (r *Registry) Waiters() int {
	n := 0
	r.each(func(_ string, ts localSpace) { n += ts.Waiters() })
	return n
}
