// Package cache implements the write-through cache hierarchy of the
// paper's simulator (Table 1): 32 KB L1, 2 MB 4-way L2, 32 MB 8-way L3
// with 10 ns access latency, all LRU with 64-byte lines. Write-through
// means every data write proceeds to main memory; the hierarchy only
// filters reads, which is the modelling assumption the paper's
// write-latency accounting rests on (Section 3.2).
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// LineBytes is the cache line size used throughout (64 B).
const LineBytes = 64

// Cache is one set-associative, LRU, write-through cache level. It is a
// value type: a Hierarchy holds its three levels inline, and a hybrid
// system holds its Hierarchy inline, so a lookup reaches the tag store
// without chasing a pointer per level.
//
// The tag store is one flat array: set s owns lines[s*ways:(s+1)*ways],
// ordered most- to least-recently used. An entry holds tag+1, so 0 marks
// an empty way; valid entries always form a prefix of their set, because
// a fill enters at the front and shifts the rest back. Sets are indexed
// with shift/mask, which is why the set count must be a power of two.
type Cache struct {
	setBits uint   // log2(sets)
	setMask uint64 // sets - 1
	ways    int
	lines   []uint32
}

// New returns a cache of the given total size and associativity with
// 64-byte lines. It panics if the geometry is inconsistent or the set
// count is not a power of two (programming error).
func New(sizeBytes, ways int) Cache {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*LineBytes) != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", sizeBytes, ways))
	}
	sets := sizeBytes / (ways * LineBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets (size=%d ways=%d) is not a power of two", sets, sizeBytes, ways))
	}
	return Cache{
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		ways:    ways,
		lines:   make([]uint32, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// lookup returns addr's set and the entry its line would hold there.
// Tags must fit the 32-bit entry, so addresses must lie below 2^38·sets
// bytes (16 TiB for the Table 1 L1's 64 sets, 4096 hybrid regions); a
// larger one panics rather than alias another line.
func (c *Cache) lookup(addr uint64) ([]uint32, uint32) {
	line := addr / LineBytes
	tag := line >> c.setBits
	if tag >= math.MaxUint32 {
		panic("cache: address beyond the 32-bit tag range")
	}
	base := int(line&c.setMask) * c.ways
	return c.lines[base : base+c.ways], uint32(tag) + 1
}

// HitMRU reports whether addr's line is its set's most recently used
// line; the cache is unchanged either way. It is the inlinable fast path
// of Access and Touch, which return true with no reordering for exactly
// these addresses.
func (c *Cache) HitMRU(addr uint64) bool {
	line := addr / LineBytes
	tag := line >> c.setBits
	return tag < math.MaxUint32 && c.lines[int(line&c.setMask)*c.ways] == uint32(tag)+1
}

// touch moves key to the front of set if present, reporting whether it
// was.
func touch(set []uint32, key uint32) bool {
	for i, e := range set {
		if e == key {
			promote(set, i)
			return true
		}
	}
	return false
}

// promote moves set[i] to the front, shifting set[:i] back one way.
func promote(set []uint32, i int) {
	e := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = e
}

// Access looks up addr, allocating the line (and evicting LRU) on a miss.
// It returns true on hit.
//
//memlint:hotpath
func (c *Cache) Access(addr uint64) bool {
	set, key := c.lookup(addr)
	if touch(set, key) {
		return true
	}
	// Fill at the front; the last way (the LRU line, or an empty way
	// while the set is filling) drops off.
	promote(set, len(set)-1)
	set[0] = key
	return false
}

// Touch updates the line's recency if present but does not allocate — the
// write-through, no-write-allocate policy for stores.
//
//memlint:hotpath
func (c *Cache) Touch(addr uint64) bool {
	set, key := c.lookup(addr)
	return touch(set, key)
}

// Level access latencies. Table 1 specifies only the L3 latency (10 ns);
// the L1/L2 values are the conventional magnitudes for those sizes and
// only matter for the total-access-time metric, never for write latency.
const (
	L1Nanos = 1.0
	L2Nanos = 4.0
	L3Nanos = 10.0
)

// Hierarchy is the three-level write-through hierarchy of Table 1.
// Its levels are held by value (see Cache).
type Hierarchy struct {
	L1, L2, L3 Cache
}

// NewHierarchy returns the Table 1 configuration: 32 KB 8-way L1,
// 2 MB 4-way L2, 32 MB 8-way L3.
func NewHierarchy() Hierarchy {
	return Hierarchy{
		L1: New(32<<10, 8),
		L2: New(2<<20, 4),
		L3: New(32<<20, 8),
	}
}

// Read services a load: it returns the level that hit (1–3) and the
// accumulated latency, or level 0 when the access misses everywhere and
// must go to memory (the returned latency then counts the traversal cost
// of all three levels).
//
//memlint:hotpath
func (h *Hierarchy) Read(addr uint64) (level int, nanos float64) {
	if h.L1.Access(addr) {
		return 1, L1Nanos
	}
	if h.L2.Access(addr) {
		return 2, L1Nanos + L2Nanos
	}
	if h.L3.Access(addr) {
		return 3, L1Nanos + L2Nanos + L3Nanos
	}
	return 0, L1Nanos + L2Nanos + L3Nanos
}

// Write services a store under write-through/no-write-allocate: present
// lines refresh their recency, nothing is allocated, and the store always
// proceeds to memory (the caller forwards it to the PCM simulator).
// Each level's MRU check is inlined, so a store whose line is most
// recently used everywhere makes no call.
//
//memlint:hotpath
func (h *Hierarchy) Write(addr uint64) {
	if !h.L1.HitMRU(addr) {
		h.L1.Touch(addr)
	}
	if !h.L2.HitMRU(addr) {
		h.L2.Touch(addr)
	}
	if !h.L3.HitMRU(addr) {
		h.L3.Touch(addr)
	}
}
