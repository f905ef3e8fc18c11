// Package pcm is the main-memory timing simulator of the paper's Table 1:
// a PCM device with 4 ranks of 8 banks, a 32-entry write queue per bank,
// and read-priority scheduling. It models the
// CPU-visible cost of the access stream that misses (reads) or writes
// through (stores) the cache hierarchy:
//
//   - Stores are posted: the CPU deposits them in the owning bank's write
//     queue and continues, stalling only when the queue is full.
//   - Loads block the CPU. A load must wait for the operation currently
//     occupying its bank (writes are not preempted mid-flight) but jumps
//     ahead of all *queued* writes — read-priority scheduling — pushing
//     those writes back.
//
// Table 1 also gives each bank an 8-entry read queue. It is not modelled:
// the CPU blocks on every load, so at most one read is ever outstanding
// and a read queue of any depth never fills.
//
// Banks are interleaved at page granularity (Table 1: 4 KB pages). Write
// service time is supplied per request so precise and approximate regions
// can share one device.
package pcm

import (
	"fmt"
	"math/bits"
)

// Config describes the device geometry and timing.
type Config struct {
	// Ranks and BanksPerRank give the bank-level parallelism.
	Ranks, BanksPerRank int
	// WriteQueueDepth is the per-bank write queue capacity, a power of
	// two. There is no read queue depth (see the package comment).
	WriteQueueDepth int
	// PageBytes is the bank-interleaving granularity.
	PageBytes int
	// ReadNanos is the array-read service time.
	ReadNanos float64
	// SeqWriteFactor scales the service time of a write that lands on
	// the same page its bank last accessed (a row-buffer hit). 1 (and
	// 0) disable the effect — the paper's base model assumes random and
	// sequential writes cost the same, and its Section 5 names this
	// refinement as future work. (Measured outcome: both the hybrid and
	// the baseline execution benefit, so the discount does not by itself
	// raise the hybrid advantage; see EXPERIMENTS.md.)
	SeqWriteFactor float64
}

// DefaultConfig returns the Table 1 parameters: 4 ranks × 8 banks, 4 KB
// pages, 32-entry write queues, 50 ns reads.
func DefaultConfig() Config {
	return Config{
		Ranks:           4,
		BanksPerRank:    8,
		WriteQueueDepth: 32,
		PageBytes:       4096,
		ReadNanos:       50,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Ranks < 1 || c.BanksPerRank < 1 {
		return fmt.Errorf("pcm: need at least one bank, got %d×%d", c.Ranks, c.BanksPerRank)
	}
	if d := c.WriteQueueDepth; d < 1 || d&(d-1) != 0 {
		return fmt.Errorf("pcm: WriteQueueDepth = %d is not a positive power of two", d)
	}
	if banks := c.Ranks * c.BanksPerRank; banks&(banks-1) != 0 {
		return fmt.Errorf("pcm: %d banks (%d×%d) is not a power of two", banks, c.Ranks, c.BanksPerRank)
	}
	if c.PageBytes < 64 {
		return fmt.Errorf("pcm: PageBytes = %d too small", c.PageBytes)
	}
	if c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("pcm: PageBytes = %d is not a power of two", c.PageBytes)
	}
	if c.ReadNanos <= 0 {
		return fmt.Errorf("pcm: ReadNanos must be positive, got %v", c.ReadNanos)
	}
	if c.SeqWriteFactor < 0 || c.SeqWriteFactor > 1 {
		return fmt.Errorf("pcm: SeqWriteFactor = %v out of [0, 1]", c.SeqWriteFactor)
	}
	return nil
}

// write is one queued store: its service duration, scheduled by [start,
// start+dur).
type write struct {
	start float64
	dur   float64
}

// bank is one bank's queue state: its queued stores are the n entries
// of its ring segment starting at head (wrapping), oldest first, already
// laid out back-to-back in time, so they also complete in ring order.
//
// Completed stores are dropped lazily: a store posted to a queue with
// room needs no count, because a completed last store ends at or before
// now and so cannot delay the new one. Every decision that does depend
// on the count (a full queue, a read's in-service check, QueueDepth)
// prunes first. The CPU clock never runs backwards, so a late prune drops
// exactly the stores an eager one would have.
type bank struct {
	// lastPage tracks the open row for the sequential-write discount;
	// ^0 means no row open yet.
	lastPage uint64
	head, n  uint32
}

// Stats summarizes a simulation.
type Stats struct {
	// Reads and Writes count serviced requests.
	Reads, Writes uint64
	// ReadStallNanos is CPU time spent blocked on loads.
	ReadStallNanos float64
	// WriteStallNanos is CPU time spent blocked on full write queues.
	WriteStallNanos float64
	// WriteQueueFullEvents counts stores that found their queue full.
	WriteQueueFullEvents uint64
	// ReadsDelayedByWrite counts loads that arrived while a write
	// occupied their bank.
	ReadsDelayedByWrite uint64
	// SeqWriteHits counts stores that received the row-buffer discount
	// (zero unless Config.SeqWriteFactor is set).
	SeqWriteHits uint64
}

// Sim is the device simulator. It is driven by a monotonically
// non-decreasing CPU clock supplied by the caller. Not safe for
// concurrent use.
//
// Sim is a value type, so a hybrid system holds it inline. Every bank's
// write queue lives in one ring array: bank b owns the WriteQueueDepth
// entries from b<<depthBits, and its i-th oldest store sits at
// b<<depthBits | (head+i)&depthMask.
type Sim struct {
	pageShift uint   // log2(PageBytes)
	bankMask  uint64 // banks - 1
	depthBits uint   // log2(WriteQueueDepth)
	depthMask uint32 // WriteQueueDepth - 1
	readNanos float64
	seqFactor float64
	ring      []write
	banks     []bank
	stats     Stats
}

// New returns a simulator for cfg. It panics on invalid configuration
// (programming error).
func New(cfg Config) Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nb, depth := cfg.Ranks*cfg.BanksPerRank, cfg.WriteQueueDepth
	s := Sim{
		pageShift: uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		bankMask:  uint64(nb - 1),
		depthBits: uint(bits.TrailingZeros(uint(depth))),
		depthMask: uint32(depth - 1),
		readNanos: cfg.ReadNanos,
		ring:      make([]write, nb*depth),
		banks:     make([]bank, nb),
	}
	if f := cfg.SeqWriteFactor; f > 0 && f < 1 {
		s.seqFactor = f
	}
	for i := range s.banks {
		s.banks[i].lastPage = ^uint64(0)
	}
	return s
}

// Bank returns the bank index servicing addr.
func (s *Sim) Bank(addr uint64) int {
	return int(addr >> s.pageShift & s.bankMask)
}

// queue returns bank b's state and its ring segment.
func (s *Sim) queue(b uint64) (*bank, []write) {
	lo := b << s.depthBits
	return &s.banks[b], s.ring[lo : lo+uint64(s.depthMask)+1]
}

// prune drops queue entries that completed at or before now.
//
//memlint:hotpath
func (s *Sim) prune(bk *bank, q []write, now float64) {
	for bk.n > 0 && q[bk.head].start+q[bk.head].dur <= now {
		bk.head = (bk.head + 1) & s.depthMask
		bk.n--
	}
}

// Write posts a store of the given service duration at CPU time now and
// returns the time at which the CPU may continue (== now unless the write
// queue was full).
//
//memlint:hotpath
func (s *Sim) Write(addr uint64, now, durNanos float64) float64 {
	page := addr >> s.pageShift
	bk, q := s.queue(page & s.bankMask)
	if s.seqFactor > 0 && page == bk.lastPage {
		durNanos *= s.seqFactor
		s.stats.SeqWriteHits++
	}
	bk.lastPage = page
	if int(bk.n) == len(q) {
		s.prune(bk, q, now)
	}
	if int(bk.n) == len(q) {
		// Stall until the oldest queued store drains.
		s.stats.WriteQueueFullEvents++
		oldest := q[bk.head]
		release := oldest.start + oldest.dur
		s.stats.WriteStallNanos += release - now
		now = release
		s.prune(bk, q, now)
	}
	start := now
	if bk.n > 0 {
		last := q[(bk.head+bk.n-1)&s.depthMask]
		if tail := last.start + last.dur; tail > start {
			start = tail
		}
	}
	q[(bk.head+bk.n)&s.depthMask] = write{start: start, dur: durNanos}
	bk.n++
	s.stats.Writes++
	return now
}

// Read services a blocking load at CPU time now and returns its completion
// time. Read priority: the load waits only for the store currently in
// service (if any), then executes; every store scheduled after it is
// pushed back by the read's service time.
//
//memlint:hotpath
func (s *Sim) Read(addr uint64, now float64) float64 {
	page := addr >> s.pageShift
	bk, q := s.queue(page & s.bankMask)
	s.prune(bk, q, now)
	// Reads open the row too, closing any sequential write streak.
	bk.lastPage = page
	start := now
	pending := uint32(0) // index of the first store that has not begun service
	if bk.n > 0 && q[bk.head].start < now {
		// A store is mid-service; it cannot be preempted.
		s.stats.ReadsDelayedByWrite++
		start = q[bk.head].start + q[bk.head].dur
		pending = 1
	}
	done := start + s.readNanos
	// The read jumps ahead of every not-yet-started store: push them
	// back (uniformly, preserving their back-to-back layout) so the
	// first resumes when the read finishes.
	if first := &q[(bk.head+pending)&s.depthMask]; pending < bk.n && first.start < done {
		shift := done - first.start
		for j := pending; j < bk.n; j++ {
			q[(bk.head+j)&s.depthMask].start += shift
		}
	}
	s.stats.Reads++
	s.stats.ReadStallNanos += done - now
	return done
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() Stats { return s.stats }

// QueueDepth returns the number of stores pending in addr's bank at time
// now — exposed for tests.
func (s *Sim) QueueDepth(addr uint64, now float64) int {
	bk, q := s.queue(uint64(s.Bank(addr)))
	s.prune(bk, q, now)
	return int(bk.n)
}
