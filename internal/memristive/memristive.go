// Package memristive implements an approximate memristive (ReRAM) memory
// model: approximate writes use a reduced programming current, trading
// write energy for a per-cell switching-failure probability. A cell whose
// write fails to switch RETAINS its previous stored value — corruption is
// data-dependent (rewriting a cell with the value it already holds can
// never corrupt it), unlike the spintronic model's independent XOR flips
// or the MLC model's target-range analog drift. Reads are precise and
// faster than the PCM array read: ReRAM's resistive sensing is commonly
// reported at roughly half the PCM read latency, which gives this backend
// a genuinely different read cost structure the verifier pins per-read.
//
// Space satisfies the same allocation/accounting contract as the MLC PCM
// and spintronic spaces, so the approx-refine engine (internal/core) runs
// on it unchanged — a third demonstration that the mechanism is not tied
// to one approximate-memory technology.
package memristive

import (
	"fmt"
	"math"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

// ReadNanos is the latency of one ReRAM data read: half the PCM array
// read (mlc.ReadNanos), the usual relative placement in the NVM timing
// literature.
const ReadNanos = mlc.ReadNanos / 2

// Config is one operating point of the approximate memristive memory.
type Config struct {
	// CurrentScale is the programming current relative to the precise
	// write, in (0, 1]: each approximate write costs CurrentScale energy
	// units (a precise write costs 1).
	CurrentScale float64
	// SwitchFailProb is the independent per-cell probability that a
	// reduced-current write fails to switch, leaving the cell at its
	// previous value.
	SwitchFailProb float64
}

// Validate reports whether the operating point is meaningful.
func (c Config) Validate() error {
	if c.CurrentScale <= 0 || c.CurrentScale > 1 {
		return fmt.Errorf("memristive: CurrentScale = %v out of (0, 1]", c.CurrentScale)
	}
	if c.SwitchFailProb < 0 || c.SwitchFailProb > 0.5 {
		return fmt.Errorf("memristive: SwitchFailProb = %v out of [0, 0.5]", c.SwitchFailProb)
	}
	return nil
}

// Presets returns three operating points in increasing aggressiveness:
// mild, the registry default, and deep current reduction.
func Presets() []Config {
	return []Config{
		{CurrentScale: 0.9, SwitchFailProb: 1e-6},
		{CurrentScale: 0.7, SwitchFailProb: 1e-5},
		{CurrentScale: 0.5, SwitchFailProb: 1e-4},
	}
}

// Space is an approximate memristive memory region compatible with
// mem.Space. Accounting follows the same batched Raw/Fold scheme as the
// PCM and spintronic spaces: the hot path mutates integer counters on the
// owning array; Stats folds the array registry on demand.
type Space struct {
	cfg   Config
	r     *rng.Source
	fold  mem.Fold
	sink  mem.Sink
	addrs mem.AddressAllocator
	words []*words
	base  mem.Raw

	// logOneMinusFail caches ln(1−SwitchFailProb) for geometric skipping
	// over the 32 cells of a word write.
	logOneMinusFail float64
}

// NewSpace returns a memristive space at operating point cfg. It panics on
// an invalid configuration (programming error).
func NewSpace(cfg Config, seed uint64) *Space {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Space{
		cfg: cfg,
		r:   rng.New(seed),
		fold: mem.Fold{
			ReadNanos:      ReadNanos,
			WriteNanos:     mlc.PreciseWriteNanos,
			EnergyPerWrite: cfg.CurrentScale,
		},
		logOneMinusFail: math.Log1p(-cfg.SwitchFailProb),
	}
}

// Config returns the space's operating point.
func (s *Space) Config() Config { return s.cfg }

// SetSink attaches a trace sink, retroactively rebinding arrays
// allocated before the attach.
func (s *Space) SetSink(sink mem.Sink) {
	s.sink = sink
	for _, w := range s.words {
		w.sink = sink
	}
}

// Alloc implements mem.Space.
func (s *Space) Alloc(n int) mem.Words {
	w := &words{space: s, sink: s.sink, base: s.addrs.Take(n), data: make([]uint32, n)}
	s.words = append(s.words, w)
	return w
}

func (s *Space) rawTotal() mem.Raw {
	var total mem.Raw
	for _, w := range s.words {
		total.Add(w.raw)
	}
	return total
}

// Stats implements mem.Space.
func (s *Space) Stats() mem.Stats { return s.fold.Stats(s.rawTotal().Sub(s.base)) }

// ResetStats zeroes the aggregate by snapshotting the current raw totals
// as the new baseline; arrays allocated before the reset fold into the
// post-reset aggregate exactly once.
func (s *Space) ResetStats() { s.base = s.rawTotal() }

// Approximate implements mem.Space.
func (s *Space) Approximate() bool { return true }

// MinWriteNanos returns the least latency one word write can cost: every
// write takes the fixed precise latency.
func (s *Space) MinWriteNanos() float64 { return s.fold.MinWriteNanos() }

// failMask draws the set of cells whose switch fails on one word write:
// each of the 32 bit positions fails independently with SwitchFailProb,
// sampled by geometric skipping so the common failure-free case costs a
// single uniform draw.
func (s *Space) failMask() uint32 {
	if s.cfg.SwitchFailProb == 0 { //nolint:floatord // exact-zero fast path on a configured probability, not an accumulated sum
		return 0
	}
	var mask uint32
	bit := 0
	for {
		// Distance to the next failed cell: geometric with success
		// probability SwitchFailProb. 1−Float64() lies in (0, 1], keeping
		// the logarithm finite.
		u := 1 - s.r.Float64()
		skip := int(math.Log(u) / s.logOneMinusFail)
		bit += skip
		if bit >= 32 {
			return mask
		}
		mask |= 1 << uint(bit)
		bit++
	}
}

type words struct {
	space *Space
	sink  mem.Sink
	base  uint64
	data  []uint32
	raw   mem.Raw
}

func (w *words) Len() int { return len(w.data) }

//memlint:hotpath
func (w *words) Get(i int) uint32 {
	w.raw.Reads++
	if w.sink != nil {
		w.sink.Access(mem.OpRead, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	// Reads are precise: switching failures corrupt the stored value at
	// write time, and sensing returns it faithfully.
	return w.data[i]
}

//memlint:hotpath
func (w *words) Set(i int, v uint32) {
	// Cells whose switch fails retain the previous stored value; a write
	// corrupts only where the new and old values actually differ.
	stored := v
	if mask := w.space.failMask(); mask != 0 {
		stored = (v &^ mask) | (w.data[i] & mask)
	}
	w.raw.Writes++
	if stored != v {
		w.raw.Corrupted++
	}
	if w.sink != nil {
		w.sink.Access(mem.OpWrite, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	w.data[i] = stored
}

// GetSlice implements mem.BulkWords: reads are precise, so the bulk read
// is a counter bump plus a copy.
func (w *words) GetSlice(i int, dst []uint32) {
	if w.sink != nil {
		for j := range dst {
			dst[j] = w.Get(i + j)
		}
		return
	}
	w.raw.Reads += len(dst)
	copy(dst, w.data[i:i+len(dst)])
}

// SetSlice implements mem.BulkWords: writes run through the
// switch-failure model in index order, consuming the noise stream exactly
// as per-element Sets would.
func (w *words) SetSlice(i int, src []uint32) {
	if w.sink != nil {
		for j, v := range src {
			w.Set(i+j, v)
		}
		return
	}
	s := w.space
	corrupted := 0
	for j, v := range src {
		stored := v
		if mask := s.failMask(); mask != 0 {
			stored = (v &^ mask) | (w.data[i+j] & mask)
		}
		if stored != v {
			corrupted++
		}
		w.data[i+j] = stored
	}
	w.raw.Writes += len(src)
	w.raw.Corrupted += corrupted
}

// Reorderable implements mem.BulkWords: untraced memristive arrays
// commute under read/write decoupling because reads are precise and never
// touch the noise stream; writes stay in index order on both paths.
func (w *words) Reorderable() bool { return w.sink == nil }

// Stats returns the accesses charged to this array, folded under the
// space's cost recipe.
func (w *words) Stats() mem.Stats { return w.space.fold.Stats(w.raw) }

// Peek implements mem.Peeker.
func (w *words) Peek(i int) uint32 { return w.data[i] }
