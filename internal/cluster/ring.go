// Package cluster turns a set of independent bambood nodes into a
// sharded serving ring. There is no coordinator and no replication:
// each node runs the full daemon (WAL, cache, sessions), and any node
// can front the whole cluster. A Router in front of the local server
// consistent-hashes each program's compile fingerprint onto the ring,
// so a hot program always lands on the node that already holds its
// compiled cache entry and its resident sessions — the owner-computes
// rule applied at cluster scope. Work is shed to the next ring node
// when the owner rejects with 429/503 (jobs only; sessions are sticky
// to the state they accumulate), and membership demotes unreachable
// peers so the router stops picking them.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is how many points each node contributes to the ring.
// 64 keeps the per-node share within a few percent of fair for small
// rings without making lookup tables noticeable.
const defaultVNodes = 64

type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Membership changes do not
// rebuild it — dead nodes stay on the ring and are skipped at walk
// time, so keys do not migrate when a node bounces (its cache and WAL
// are exactly what we want to route back to when it returns).
type Ring struct {
	points []ringPoint
	nodes  []string
}

// NewRing builds a ring over the given node IDs with vnodes points per
// node (defaultVNodes when <= 0).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for _, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// FNV of short, similar strings ("n1#0", "n1#1", ...) leaves long
	// runs of correlated points that skew ownership badly (one node can
	// end up with 70% of the ring). The splitmix64 finalizer avalanches
	// the low-entropy tail across all 64 bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the node owning key (the first ring point at or after
// the key's hash), or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	w := r.Walk(key)
	if len(w) == 0 {
		return ""
	}
	return w[0]
}

// Walk returns every node exactly once in failover order for key: the
// owner first, then each successor as the ring is traversed clockwise.
// Shedding and dead-node skipping both follow this order, so a key's
// fallback chain is stable across the whole cluster.
func (r *Ring) Walk(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.nodes))
	order := make([]string, 0, len(r.nodes))
	for i := 0; i < len(r.points) && len(order) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			order = append(order, p.node)
		}
	}
	return order
}
