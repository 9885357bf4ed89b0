package cluster

import (
	"fmt"

	"repro/internal/remote"
	"repro/internal/tspace"
)

// SelfCheck builds a remote.ServerConfig.RouteCheck enforcing that keyed
// operations landing on this node belong here: selfID must own the key.
// A keyed tuple is stored on its owner alone, so no other node may accept
// a keyed op for it, the next-ranked one included. Wildcard templates
// pass — fan-out reaches every shard by design — and a misrouted op earns
// a typed redirect naming the owner, which the substrate answers as
// codeRedirect. The policy lives here, above the fabric: the server stays
// routing-agnostic.
//
// slack must be 0; any other value is an error. The parameter is kept
// only for existing callers and goes when the benchmark harness next
// changes (ROADMAP item 11).
func SelfCheck(m *Membership, selfID string, slack int) (func(space string, tup tspace.Tuple, tpl tspace.Template) error, error) {
	if _, ok := m.ByID(selfID); !ok {
		return nil, fmt.Errorf("cluster: self id %q not in membership", selfID)
	}
	if slack != 0 {
		return nil, fmt.Errorf("cluster: SelfCheck slack %d: only the owner is accepted, pass 0", slack)
	}
	return func(space string, tup tspace.Tuple, tpl tspace.Template) error {
		op, key := "put", uint64(0)
		if tup != nil {
			key = tupleKey(space, tup)
		} else {
			var ok bool
			if key, ok = routeKey(space, tpl); !ok {
				return nil // wildcard template: every shard is a valid target
			}
			op = "get"
		}
		if own := m.Owner(key); own.ID != selfID {
			return &remote.RedirectError{Op: op, Space: space, Node: own.ID, Addr: own.Addr}
		}
		return nil
	}, nil
}
