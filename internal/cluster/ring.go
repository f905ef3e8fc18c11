// Package cluster fans one large sort across a fleet of sortd
// instances: a coordinator samples splitters, range-partitions the
// input into per-shard jobs placed by consistent hashing, drives the
// shards' approx-refine external sorts over the HTTP API, and
// concatenates the sorted shard streams in range order — range
// partitioning leaves nothing to merge — through the injected audit
// hooks, so the final pass's MergeWrites ledger stays exact.
//
// The package deliberately imports neither internal/server nor
// internal/verify: it speaks to shards over the wire (small JSON
// mirrors of the job API), and the coordinator's verification chain is
// injected through the StreamAuditor / WrapShard hooks, exactly as
// extsort.Verifier keeps verify out of extsort.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-node vnode count. 64 points per node
// keeps the standard deviation of ring arc shares within a few percent
// for small fleets without bloating lookups.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over node names (base
// URLs). Placement is stable under membership change: adding or
// removing a node only moves the keys on the arcs it owns.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NewRing builds a ring over nodes with the given vnode count per node
// (<= 0 selects DefaultVirtualNodes). Node order does not matter;
// duplicate nodes are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	sort.Strings(r.nodes)
	for i, n := range r.nodes {
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Hash ties (astronomically rare with fnv-64) order by node so
		// the ring is still a pure function of the membership set.
		return p.node < q.node
	})
	return r, nil
}

// Nodes returns the membership in ring (sorted) order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Lookup returns the node owning key.
func (r *Ring) Lookup(key string) string { return r.LookupN(key, 1)[0] }

// LookupN returns min(n, len(nodes)) distinct nodes for key, walking
// clockwise from the key's point and skipping vnodes of already-chosen
// nodes — the standard preference-list walk, so node i+1 is the natural
// failover (or co-placement) target after node i.
func (r *Ring) LookupN(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}
