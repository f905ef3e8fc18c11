// Package hybrid wires the full memory system of the paper's Figure 3
// together: the CPU-side write-through cache hierarchy (internal/cache) in
// front of one PCM device (internal/pcm) whose physical address space is
// split into a precise region and an approximate region — same silicon,
// different guard bands, so they share ranks, banks and queues.
//
// A System is driven as a mem.Sink: attach Region sinks to the
// instrumented spaces (mem.PreciseSpace.SetSink / mem.ApproxSpace.SetSink)
// and every Get/Set flows through caches and bank queues, accumulating the
// CPU-visible "total memory access time" the paper's abstract reports.
// Regions also serve as the analogue of the paper's approx_alloc /
// ld.approx / st.approx interface (Section 2.3): the region an address
// falls in determines how the device treats it.
package hybrid

import (
	"fmt"

	"approxsort/internal/cache"
	"approxsort/internal/mem"
	"approxsort/internal/pcm"
)

// System is the hybrid memory system: caches plus a region-split PCM
// device sharing one CPU clock. The hierarchy and the device are held by
// value, so an access reaches the tag stores and the write rings through
// the system pointer alone.
type System struct {
	hier  cache.Hierarchy
	dev   pcm.Sim
	clock float64
	next  uint64 // next free region base

	reads, writes   uint64
	readHits        [4]uint64 // by level; [0] counts memory reads
	cacheReadNanos  float64
	memReadNanos    float64
	writeIssueNanos float64
}

// New returns a system with the Table 1 cache hierarchy and PCM device.
func New() *System {
	return &System{hier: cache.NewHierarchy(), dev: pcm.New(pcm.DefaultConfig())}
}

// NewWithConfig returns a system with a custom PCM configuration.
func NewWithConfig(cfg pcm.Config) *System {
	return &System{hier: cache.NewHierarchy(), dev: pcm.New(cfg)}
}

// regionBytes is the size reserved for each region (4 GB of the 8 GB
// device in the default split of Table 1).
const regionBytes = 4 << 30

// Region is a mem.Sink that maps a space's zero-based addresses into the
// system's physical address space and tags its writes with a service time.
type Region struct {
	sys        *System
	base       uint64
	writeNanos float64
	name       string
}

// Region reserves the next address range and returns its sink. writeNanos
// is the per-store device service time for the region — e.g.
// mlc.PreciseWriteNanos for the precise region, or the approximate
// region's p(t)-scaled latency.
func (s *System) Region(name string, writeNanos float64) *Region {
	if writeNanos <= 0 {
		panic(fmt.Sprintf("hybrid: region %q needs positive write latency", name))
	}
	r := &Region{sys: s, base: s.next, writeNanos: writeNanos, name: name}
	s.next += regionBytes
	return r
}

// Name returns the region's label.
func (r *Region) Name() string { return r.name }

// Base returns the region's physical base address.
func (r *Region) Base() uint64 { return r.base }

// Access implements mem.Sink. A read that hits the L1 set's most
// recently used line — most reads of a sort's stream — is answered inline
// with exactly the additions the full hierarchy walk would make.
//
//memlint:hotpath
func (r *Region) Access(op mem.Op, addr uint64, size int) {
	sys := r.sys
	phys := r.base + addr
	if op == mem.OpRead {
		sys.reads++
		if sys.hier.L1.HitMRU(phys) {
			sys.readHits[1]++
			sys.cacheReadNanos += cache.L1Nanos
			sys.clock += cache.L1Nanos
			return
		}
		level, nanos := sys.hier.Read(phys)
		sys.readHits[level]++
		sys.cacheReadNanos += nanos
		sys.clock += nanos
		if level == 0 {
			done := sys.dev.Read(phys, sys.clock)
			sys.memReadNanos += done - sys.clock
			sys.clock = done
		}
		return
	}
	sys.writes++
	sys.hier.Write(phys)
	resume := sys.dev.Write(phys, sys.clock, r.writeNanos)
	sys.writeIssueNanos += resume - sys.clock
	sys.clock = resume
}

// Stats summarizes the system-level timing.
type Stats struct {
	// Clock is the CPU-visible elapsed time in nanoseconds: the
	// paper's "total memory access time".
	Clock float64
	// Reads and Writes count accesses entering the hierarchy.
	Reads, Writes uint64
	// L1/L2/L3 hits and memory reads.
	L1Hits, L2Hits, L3Hits, MemReads uint64
	// CacheReadNanos is time spent traversing cache levels.
	CacheReadNanos float64
	// MemReadNanos is time spent blocked on PCM reads.
	MemReadNanos float64
	// WriteStallNanos is time spent blocked on full write queues.
	WriteStallNanos float64
	// Device carries the raw PCM statistics.
	Device pcm.Stats
}

// Check verifies the snapshot's internal consistency — the system-level
// half of the verification subsystem (internal/verify audits the
// space-level accounting; this audits the cache + device pipeline):
// every read resolved at exactly one level, the device never serviced
// more requests than entered the hierarchy, every timing component is
// non-negative, and the CPU clock covers their sum (idle time injected
// via AdvanceClock can only add to it).
func (s Stats) Check() error {
	if got := s.L1Hits + s.L2Hits + s.L3Hits + s.MemReads; got != s.Reads {
		return fmt.Errorf("hybrid: read hits sum to %d, want %d reads", got, s.Reads)
	}
	if s.Device.Reads != s.MemReads {
		return fmt.Errorf("hybrid: device serviced %d reads, hierarchy missed %d",
			s.Device.Reads, s.MemReads)
	}
	if s.Device.Writes != s.Writes {
		return fmt.Errorf("hybrid: device serviced %d writes, hierarchy issued %d",
			s.Device.Writes, s.Writes)
	}
	// A fixed order, so the first negative field named is deterministic.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Clock", s.Clock}, {"CacheReadNanos", s.CacheReadNanos},
		{"MemReadNanos", s.MemReadNanos}, {"WriteStallNanos", s.WriteStallNanos},
	} {
		if f.v < 0 {
			return fmt.Errorf("hybrid: %s = %g is negative", f.name, f.v)
		}
	}
	spent := s.CacheReadNanos + s.MemReadNanos + s.WriteStallNanos
	if s.Clock < spent*(1-1e-9) {
		return fmt.Errorf("hybrid: clock %g ns below accounted time %g ns", s.Clock, spent)
	}
	return nil
}

// Stats returns the current totals.
func (s *System) Stats() Stats {
	d := s.dev.Stats()
	return Stats{
		Clock:           s.clock,
		Reads:           s.reads,
		Writes:          s.writes,
		L1Hits:          s.readHits[1],
		L2Hits:          s.readHits[2],
		L3Hits:          s.readHits[3],
		MemReads:        s.readHits[0],
		CacheReadNanos:  s.cacheReadNanos,
		MemReadNanos:    s.memReadNanos,
		WriteStallNanos: s.writeIssueNanos,
		Device:          d,
	}
}

// Clock returns the CPU-visible time in nanoseconds.
func (s *System) Clock() float64 { return s.clock }

// AdvanceClock adds idle time (e.g. CPU compute between memory phases);
// it lets queued writes drain before the next burst.
func (s *System) AdvanceClock(nanos float64) {
	if nanos < 0 {
		panic("hybrid: cannot rewind the clock")
	}
	s.clock += nanos
}
