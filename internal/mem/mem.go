// Package mem provides the instrumented memory arrays every sorting
// algorithm in this repository runs against: precise PCM arrays and
// approximate (MLC-model-backed) arrays, with per-array and per-space
// accounting of access counts, latencies and write energy.
//
// The hybrid system of the paper (Figure 3) is modelled as two Spaces —
// one precise, one approximate — from which algorithms allocate Words
// arrays. Every Get/Set is charged to the owning space, optionally mirrored
// to a trace Sink so the cache + PCM bank simulator can replay it.
package mem

import (
	"fmt"

	"approxsort/internal/mlc"
)

// Op distinguishes the two access types reported to a Sink.
type Op uint8

// Access operation kinds.
const (
	OpRead Op = iota
	OpWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Sink receives every memory access performed through an instrumented
// array. Implementations include the trace writer and the cache + PCM
// pipeline. Addr is a byte address in the simulated physical address space
// and size is the access width in bytes.
type Sink interface {
	Access(op Op, addr uint64, size int)
}

// Raw is the integer access accounting mutated on the hot path. The
// instrumented arrays touch only these counters per access; latency and
// energy floats are derived from them at stage boundaries by the owning
// space's Fold (see DESIGN.md §13), so a Get costs one increment and a
// Set two or three instead of ~10 field updates.
type Raw struct {
	// Reads and Writes count word accesses.
	Reads, Writes int
	// Iters is the total number of P&V pulses issued (pulse-count-model
	// arrays only; zero otherwise).
	Iters int
	// Corrupted counts word writes whose stored value differs from the
	// written value.
	Corrupted int
}

// Add accumulates other into r.
func (r *Raw) Add(other Raw) {
	r.Reads += other.Reads
	r.Writes += other.Writes
	r.Iters += other.Iters
	r.Corrupted += other.Corrupted
}

// Sub returns the component-wise difference r − other.
func (r Raw) Sub(other Raw) Raw {
	return Raw{
		Reads:     r.Reads - other.Reads,
		Writes:    r.Writes - other.Writes,
		Iters:     r.Iters - other.Iters,
		Corrupted: r.Corrupted - other.Corrupted,
	}
}

// Fold is a space's cost recipe: it derives latency/energy Stats from
// raw integer access counts. Counts and read latency are exact (integer
// multiples of the device read latency are exactly representable at any
// realistic count); write latency/energy derived once from the batch
// differ from a per-access running float sum only by the summation
// rounding the running sum itself accrued — within 1e-12 relative, see
// TestShadowAccounting — and satisfy the verify-subsystem identities by
// construction.
type Fold struct {
	// ReadNanos is the device read latency charged per word read.
	ReadNanos float64
	// PulseCells, when nonzero, selects pulse-count costing (the MLC
	// P&V model): WriteNanos = mlc.WordLatencyNanos(Iters, PulseCells),
	// and energy tracks latency (WriteEnergy = WriteNanos /
	// mlc.PreciseWriteNanos), exactly as charging each write its own
	// WordLatencyNanos would, since the formula is linear in Iters.
	PulseCells int
	// WriteNanos and EnergyPerWrite are the fixed per-write costs used
	// when PulseCells == 0 (precise PCM, spintronic).
	WriteNanos     float64
	EnergyPerWrite float64
}

// Stats derives the full accounting for raw under the fold's recipe.
func (f Fold) Stats(raw Raw) Stats {
	st := Stats{
		Reads:     raw.Reads,
		Writes:    raw.Writes,
		Iters:     raw.Iters,
		Corrupted: raw.Corrupted,
		ReadNanos: float64(raw.Reads) * f.ReadNanos,
	}
	if f.PulseCells > 0 {
		st.WriteNanos = mlc.WordLatencyNanos(raw.Iters, f.PulseCells)
		st.WriteEnergy = st.WriteNanos / mlc.PreciseWriteNanos
	} else {
		st.WriteNanos = float64(raw.Writes) * f.WriteNanos
		st.WriteEnergy = float64(raw.Writes) * f.EnergyPerWrite
	}
	return st
}

// MinWriteNanos is the least latency the recipe can charge one word
// write: under pulse-count costing one P&V pulse per cell (every cell
// write issues at least one), otherwise the fixed per-write latency.
func (f Fold) MinWriteNanos() float64 {
	if f.PulseCells > 0 {
		return mlc.WordLatencyNanos(f.PulseCells, f.PulseCells)
	}
	return f.WriteNanos
}

// Stats accumulates the access accounting for an array or a space.
type Stats struct {
	// Reads and Writes count word accesses.
	Reads, Writes int
	// ReadNanos and WriteNanos accumulate device latency. WriteNanos is
	// the paper's "total memory write latency" (TMWL) contribution.
	ReadNanos, WriteNanos float64
	// WriteEnergy accumulates write energy in units of one precise
	// write. For the MLC model energy tracks latency (both are
	// proportional to pulse count); the spintronic model charges its
	// own per-write saving.
	WriteEnergy float64
	// Iters is the total number of P&V pulses issued (approximate MLC
	// arrays only; zero for precise arrays).
	Iters int
	// Corrupted counts word writes whose stored value differs from the
	// written value.
	Corrupted int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadNanos += other.ReadNanos
	s.WriteNanos += other.WriteNanos
	s.WriteEnergy += other.WriteEnergy
	s.Iters += other.Iters
	s.Corrupted += other.Corrupted
}

// Sub returns the component-wise difference s − other, used to extract
// per-stage deltas from space-level aggregates.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Reads:       s.Reads - other.Reads,
		Writes:      s.Writes - other.Writes,
		ReadNanos:   s.ReadNanos - other.ReadNanos,
		WriteNanos:  s.WriteNanos - other.WriteNanos,
		WriteEnergy: s.WriteEnergy - other.WriteEnergy,
		Iters:       s.Iters - other.Iters,
		Corrupted:   s.Corrupted - other.Corrupted,
	}
}

// AccessNanos returns the total device time spent in reads and writes.
func (s Stats) AccessNanos() float64 { return s.ReadNanos + s.WriteNanos }

// EquivalentPreciseWrites expresses the accumulated write latency in units
// of one precise write (the quantity the cost model of Section 4.3 calls
// "total equivalent number of precise memory writes", TEPMW).
func (s Stats) EquivalentPreciseWrites() float64 {
	return s.WriteNanos / mlc.PreciseWriteNanos
}

// String implements fmt.Stringer with a compact summary.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d readNs=%.0f writeNs=%.0f energy=%.1f corrupted=%d",
		s.Reads, s.Writes, s.ReadNanos, s.WriteNanos, s.WriteEnergy, s.Corrupted)
}

// Words is a fixed-length array of 32-bit words with instrumented access.
// Implementations are not safe for concurrent use.
type Words interface {
	// Len returns the number of words.
	Len() int
	// Get reads word i.
	Get(i int) uint32
	// Set writes word i.
	Set(i int, v uint32)
	// Stats returns the accesses charged to this array so far.
	Stats() Stats
}

// Space is a memory region (precise or approximate) from which instrumented
// arrays are allocated. Stats aggregate across every array the space ever
// allocated, which is what the paper's per-stage accounting needs (bucket
// queues come and go during radix sort but their writes still count).
type Space interface {
	// Alloc returns a zeroed array of n words charged to this space.
	Alloc(n int) Words
	// Stats returns the aggregate access statistics of the space.
	Stats() Stats
	// Approximate reports whether writes to this space may corrupt data.
	Approximate() bool
}

// pageBytes is the allocation granularity (Table 1: 4 KB pages).
const pageBytes = 4096

// AddressAllocator hands out page-aligned base addresses for arrays so
// traced accesses land in non-overlapping regions. It is exported so
// sibling space implementations (internal/spintronic, future memmodel
// backends) share the same physical-address layout as the PCM spaces
// here. The zero value is ready to use.
type AddressAllocator struct {
	next uint64
}

// Take reserves `words` 32-bit words and returns their page-aligned base
// byte address. Even a zero-length array consumes one page, so distinct
// arrays never alias.
func (a *AddressAllocator) Take(words int) uint64 {
	base := a.next
	bytes := uint64(words) * 4
	pages := (bytes + pageBytes - 1) / pageBytes
	if pages == 0 {
		pages = 1
	}
	a.next += pages * pageBytes
	return base
}

// BulkWords is optionally implemented by Words that support slice-at-once
// access. A bulk call charges exactly the accesses the equivalent
// per-element Get/Set loop would — same counts, same model randomness in
// the same order, same trace events when a sink is attached — while
// amortizing interface dispatch and accounting over the batch.
type BulkWords interface {
	// GetSlice reads words [i, i+len(dst)) into dst.
	GetSlice(i int, dst []uint32)
	// SetSlice writes src into words [i, i+len(src)).
	SetSlice(i int, src []uint32)
	// Reorderable reports whether this array's accesses may be reordered
	// relative to *other* arrays' accesses without observable effect: no
	// trace sink is attached, and reads do not consume the space's noise
	// stream. Within one bulk call the per-element order is always
	// preserved, so single-array bulk access needs no such check.
	Reorderable() bool
}

// GetSlice reads w[i : i+len(dst)] into dst, via BulkWords when available
// and a per-element adapter loop for foreign implementations.
func GetSlice(w Words, i int, dst []uint32) {
	if b, ok := w.(BulkWords); ok {
		b.GetSlice(i, dst)
		return
	}
	for j := range dst {
		dst[j] = w.Get(i + j)
	}
}

// SetSlice writes src into w[i : i+len(src)], via BulkWords when
// available and a per-element adapter loop otherwise.
func SetSlice(w Words, i int, src []uint32) {
	if b, ok := w.(BulkWords); ok {
		b.SetSlice(i, src)
		return
	}
	for j, v := range src {
		w.Set(i+j, v)
	}
}

// Reorderable reports whether w's accesses may be reordered relative to
// other arrays' accesses (see BulkWords.Reorderable). Foreign Words
// implementations are conservatively order-sensitive.
func Reorderable(w Words) bool {
	b, ok := w.(BulkWords)
	return ok && b.Reorderable()
}

// copyChunkWords is the scratch-buffer size of a bulk Copy: 4 KB of
// uint32s, one simulated page, small enough to stay on the stack.
const copyChunkWords = 1024

// Copy copies src into dst, charging one read per source word and one write
// per destination word. It panics if lengths differ, mirroring the built-in
// copy contract for full-array copies used by the approx-preparation stage.
// When both arrays support reorderable bulk access the copy runs in chunks
// (read a chunk, write a chunk) — identical counts and write-noise stream,
// since writes still land in index order; when either array is traced or
// order-sensitive it falls back to the read/write-interleaved per-element
// loop so the access stream is byte-identical to the historical one.
func Copy(dst, src Words) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("mem: Copy length mismatch %d != %d", dst.Len(), src.Len()))
	}
	n := src.Len()
	bs, okS := src.(BulkWords)
	bd, okD := dst.(BulkWords)
	if okS && okD && bs.Reorderable() && bd.Reorderable() {
		var buf [copyChunkWords]uint32
		for i := 0; i < n; i += copyChunkWords {
			m := n - i
			if m > copyChunkWords {
				m = copyChunkWords
			}
			bs.GetSlice(i, buf[:m])
			bd.SetSlice(i, buf[:m])
		}
		return
	}
	for i := 0; i < n; i++ {
		dst.Set(i, src.Get(i))
	}
}

// Peeker is implemented by arrays that allow uncharged inspection of their
// stored contents. Metrics code (Rem ratios, error rates) uses Peek so that
// measuring an experiment does not perturb its accounting.
type Peeker interface {
	// Peek returns word i without charging latency, stats or traces.
	Peek(i int) uint32
}

// PeekAll returns the current contents of w without charging accesses when
// w supports Peeker, falling back to charged reads otherwise.
func PeekAll(w Words) []uint32 {
	out := make([]uint32, w.Len())
	if p, ok := w.(Peeker); ok {
		for i := range out {
			out[i] = p.Peek(i)
		}
		return out
	}
	for i := range out {
		out[i] = w.Get(i)
	}
	return out
}

// ReadAll returns the current contents of w as a plain slice, charging
// reads for every word. Single-array bulk access preserves per-element
// order, so this is safe even for traced arrays.
func ReadAll(w Words) []uint32 {
	out := make([]uint32, w.Len())
	GetSlice(w, 0, out)
	return out
}

// Load writes the contents of src into w, charging writes.
func Load(w Words, src []uint32) {
	if w.Len() != len(src) {
		panic(fmt.Sprintf("mem: Load length mismatch %d != %d", w.Len(), len(src)))
	}
	SetSlice(w, 0, src)
}
