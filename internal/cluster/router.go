package cluster

import (
	"fmt"
	"slices"
)

// Partitioner routes keys to shards by range: shard i owns the keys in
// (splitters[i-1], splitters[i]], with the open ends at the extremes.
// Keys exactly equal to a boundary are legal on either side of it, and
// constant or few-valued inputs can make several boundaries equal; such
// boundary keys round-robin across every shard whose range touches the
// value, so a degenerate input still spreads instead of landing a whole
// stream on one shard. The rotation is deterministic (a per-value
// counter), and since equal keys are indistinguishable in a keys-only
// stream, the concatenated output is identical whichever shard sorts
// them.
type Partitioner struct {
	splitters []uint32
	shards    int
	// rr[v] rotates placement for boundary value v over [lo(v), hi(v)].
	rr map[uint32]int
}

// NewPartitioner builds a router for len(splitters)+1 shards. Splitters
// must be sorted ascending (equal entries allowed — see above).
func NewPartitioner(splitters []uint32) (*Partitioner, error) {
	for i := 1; i < len(splitters); i++ {
		if splitters[i] < splitters[i-1] {
			return nil, fmt.Errorf("cluster: splitters not sorted at %d: %d < %d", i, splitters[i], splitters[i-1])
		}
	}
	return &Partitioner{
		splitters: append([]uint32(nil), splitters...),
		shards:    len(splitters) + 1,
		rr:        make(map[uint32]int),
	}, nil
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.shards }

// Range returns shard i's key range [lo, hi], inclusive at both ends:
// a boundary value can round-robin onto either side of its splitter, so
// shard i may legitimately receive both of its boundary keys.
func (p *Partitioner) Range(i int) (lo, hi uint32) {
	lo, hi = 0, 1<<32-1
	if i > 0 {
		lo = p.splitters[i-1]
	}
	if i < len(p.splitters) {
		hi = p.splitters[i]
	}
	return lo, hi
}

// Route returns the shard for key.
func (p *Partitioner) Route(key uint32) int {
	// First splitter >= key: key belongs to that splitter's shard (the
	// (lo, hi] rule), unless key IS a boundary value, where every shard
	// between the first and last splitter equal to key (plus the one
	// above the last) is eligible and the per-value counter rotates.
	i, boundary := slices.BinarySearch(p.splitters, key)
	if !boundary {
		return i
	}
	j := i
	for j < len(p.splitters) && p.splitters[j] == key {
		j++
	}
	// Eligible shards are i..j (j is the shard above the last equal
	// splitter; shards strictly between equal splitters own an empty
	// open range and only ever receive this boundary value).
	n := j - i + 1
	r := p.rr[key]
	p.rr[key] = (r + 1) % n
	return i + r
}
