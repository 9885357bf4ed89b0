// Package cluster shards the tuple-space fabric across stingd nodes.
//
// A static Membership (JSON file or flag spec) names the shards; weighted
// rendezvous hashing over tspace.Hash assigns every keyable first field a
// deterministic owner, so any client, server, or tool computes the same
// placement with no coordination traffic. A keyed tuple is stored on its
// owner and nowhere else, so keyed operations go to the owner and only
// there; templates whose first field is a Formal fan out to every healthy
// shard concurrently and merge results. Shards that fail transport-wise
// are excluded and reinstated by a background prober with exponential
// backoff.
//
// One placement subtlety: a tuple whose own first field is a Formal (a
// Linda anti-tuple) cannot be keyed, so it lives on the space's home
// shard — the shard that owns the hash of the space name — where only
// fan-out templates will find it. Keyed templates hash their actual first
// field and never visit the home shard for such tuples.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/tspace"
)

// Node is one stingd shard in the cluster map.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// HTTP is the node's observability endpoint (the stingd -http
	// address): where /metrics and /readyz live. Optional — the fabric
	// never needs it — but stingtop discovers the cluster's dashboards
	// through it, so the same nodes.json the cluster routes over is the
	// dashboard's only configuration.
	HTTP string `json:"http,omitempty"`
	// Weight is the node's relative capacity under rendezvous hashing;
	// zero or negative means 1. A weight-2 node owns roughly twice the
	// key space of a weight-1 node.
	Weight float64 `json:"weight,omitempty"`
}

func (n Node) weight() float64 {
	if n.Weight <= 0 {
		return 1
	}
	return n.Weight
}

// Membership is the immutable cluster map: the shard set every placement
// decision ranks against. Construct one per configuration; reconfiguring
// means building a new Membership and new clients against it.
type Membership struct {
	nodes []Node
}

// NewMembership validates and freezes a node list.
func NewMembership(nodes []Node) (*Membership, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	seenID := make(map[string]bool, len(nodes))
	seenAddr := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n.ID == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node needs both id and addr (got id=%q addr=%q)", n.ID, n.Addr)
		}
		if strings.ContainsAny(n.ID, " \t\n") {
			return nil, fmt.Errorf("cluster: node id %q contains whitespace", n.ID)
		}
		if seenID[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		if seenAddr[n.Addr] {
			return nil, fmt.Errorf("cluster: duplicate node addr %q", n.Addr)
		}
		seenID[n.ID] = true
		seenAddr[n.Addr] = true
	}
	return &Membership{nodes: append([]Node(nil), nodes...)}, nil
}

// membershipFile is the nodes.json shape: {"nodes": [{"id", "addr", "weight"}]}.
type membershipFile struct {
	Nodes []Node `json:"nodes"`
}

// ParseJSON decodes a nodes.json document.
func ParseJSON(data []byte) (*Membership, error) {
	var f membershipFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("cluster: parse nodes.json: %w", err)
	}
	return NewMembership(f.Nodes)
}

// LoadFile reads and parses a nodes.json file.
func LoadFile(path string) (*Membership, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return ParseJSON(data)
}

// ParseSpec parses the compact flag form "id=addr,id=addr,…"; a bare
// "addr" entry gets the id shardN by position, and an "addr@httpaddr"
// suffix names the node's observability endpoint (stingtop discovery).
// Weights need the JSON file.
func ParseSpec(spec string) (*Membership, error) {
	parts := strings.Split(spec, ",")
	nodes := make([]Node, 0, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		id, addr, ok := strings.Cut(p, "=")
		if !ok {
			id, addr = fmt.Sprintf("shard%d", i+1), p
		}
		addr, httpAddr, _ := strings.Cut(addr, "@")
		nodes = append(nodes, Node{ID: id, Addr: addr, HTTP: httpAddr})
	}
	return NewMembership(nodes)
}

// Load resolves a cluster spec that is either a nodes.json path or the
// compact "id=addr,…" form — the one string flags and Scheme prims accept.
func Load(spec string) (*Membership, error) {
	if strings.HasSuffix(spec, ".json") || strings.ContainsAny(spec, "/\\") {
		return LoadFile(spec)
	}
	return ParseSpec(spec)
}

// Nodes returns the membership in declaration order.
func (m *Membership) Nodes() []Node { return append([]Node(nil), m.nodes...) }

// Len reports the shard count.
func (m *Membership) Len() int { return len(m.nodes) }

// HTTPEndpoints returns id→observability-address for every node that
// declares one, in declaration order of ids — the discovery set stingtop
// polls. Missing entries are simply absent: a cluster can mix
// instrumented and bare nodes.
func (m *Membership) HTTPEndpoints() ([]string, map[string]string) {
	ids := make([]string, 0, len(m.nodes))
	eps := make(map[string]string)
	for _, n := range m.nodes {
		if n.HTTP != "" {
			ids = append(ids, n.ID)
			eps[n.ID] = n.HTTP
		}
	}
	return ids, eps
}

// ByID looks a node up.
func (m *Membership) ByID(id string) (Node, bool) {
	for _, n := range m.nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// score is the weighted rendezvous score of node n for key: hash the
// (key, node-id) pair to a uniform u in (0,1), then -w/ln(u) — the node
// with the maximum score owns the key, and a node's share of the key
// space is proportional to its weight. Removing a node only moves the
// keys it owned; everything else keeps its placement.
func score(key uint64, n Node) float64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(n.ID); i++ {
		h = (h ^ uint64(n.ID[i])) * 0x100000001b3
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (key >> (8 * i) & 0xff)) * 0x100000001b3
	}
	u := (float64(h>>11) + 1) / float64(uint64(1)<<53+1) // (0,1)
	return -n.weight() / math.Log(u)
}

// Owner returns the node that owns key.
func (m *Membership) Owner(key uint64) Node { return m.nodes[m.owner(key)] }

// owner returns the index of key's owner in declaration order.
func (m *Membership) owner(key uint64) int {
	best, bestScore := 0, score(key, m.nodes[0])
	for i, n := range m.nodes[1:] {
		if s := score(key, n); s > bestScore || (s == bestScore && n.ID < m.nodes[best].ID) {
			best, bestScore = i+1, s
		}
	}
	return best
}

// routeKey is the rendezvous key of a tuple or template in space, its
// first field's (tspace.HashKey); false when the first field is a Formal,
// which keys no route.
func routeKey(space string, fields []core.Value) (uint64, bool) {
	var first core.Value
	if len(fields) > 0 {
		first = fields[0]
	}
	return tspace.HashKey(space, first, len(fields))
}

// tupleKey is the key a tuple of space is stored under: its routeKey, or
// for a Formal first field the space's home key (see the package comment).
func tupleKey(space string, tup tspace.Tuple) uint64 {
	key, ok := routeKey(space, tup)
	if !ok {
		key, _ = tspace.Hash(space)
	}
	return key
}
