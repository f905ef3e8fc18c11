package extsort

import "math/bits"

// radixHeap is a monotone priority queue over uint64 keys: every
// pushed key must be ≥ the key last popped. That is exactly the
// access pattern of both phases of the sort: replacement selection
// over packed run<<32|key selection keys (see formReplacement) and
// the k-way merge over key<<32|leaf composites (see runMergeLoop). It
// lets the queue bucket keys by bits.Len64(k ^ last) — the highest
// bit in which a key differs from the last popped one — instead of
// keeping them ordered. A pop that finds no key equal to last takes
// the lowest non-empty bucket, makes its minimum the new last and
// redistributes the bucket's keys, each into a strictly lower bucket
// (they all agree with the new minimum above the bucket's bit). A key
// therefore moves at most 64 times between push and pop, and a pop
// scans one bucket instead of replaying a log₂ M tree path.
//
// Pops return keys in non-decreasing order. Keys equal to last need no
// storage, only a count, because a pop returns the key value alone.
type radixHeap struct {
	last uint64 // the most recently popped key; every resident key is ≥ last
	eq   int    // resident keys equal to last
	used uint64 // bit b set when bucket[b] is non-empty
	// bucket[b] holds the resident keys whose highest bit differing from
	// last is bit b. Capacity is kept when a bucket drains, so a stream
	// allocates only while bucket high-water marks still grow.
	bucket [64][]uint64
}

// push adds k, which must be ≥ the last popped key.
//
//memlint:hotpath
func (h *radixHeap) push(k uint64) {
	d := k ^ h.last
	if d == 0 {
		h.eq++
		return
	}
	b := bits.Len64(d) - 1
	h.bucket[b] = append(h.bucket[b], k) //nolint:hotpath // grows a bucket only past its high-water mark; capacity is reused for the whole stream
	h.used |= 1 << b
}

// pop removes and returns the minimum resident key. The heap must be
// non-empty.
//
//memlint:hotpath
func (h *radixHeap) pop() uint64 {
	if h.eq == 0 {
		h.refill()
	}
	h.eq--
	return h.last
}

// refill makes the lowest non-empty bucket's minimum the new last and
// redistributes that bucket, so at least one key equals last.
//
//memlint:hotpath
func (h *radixHeap) refill() {
	b := bits.TrailingZeros64(h.used)
	keys := h.bucket[b]
	m := keys[0]
	for _, k := range keys[1:] {
		if k < m {
			m = k
		}
	}
	h.last = m
	h.bucket[b] = keys[:0]
	h.used &^= 1 << b
	// Every key lands in a bucket below b, so keys' backing array (now
	// bucket b's) is not written while it is read.
	for _, k := range keys {
		h.push(k)
	}
}
