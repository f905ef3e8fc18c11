// Package spintronic implements the approximate spintronic-memory model of
// the paper's Appendix A (after Ranjan et al., DAC'15). Lowering the
// magnetic tunnel junction's write voltage/current saves a fixed fraction
// of the write energy at the cost of independent per-bit write errors;
// reads are assumed precise. The appendix evaluates four operating points
// pairing per-write energy savings of 5/20/33/50 % with per-bit error
// probabilities of 1e-7/1e-6/1e-5/1e-4.
//
// Space satisfies the same allocation/accounting contract as the MLC PCM
// spaces in package mem, so the approx-refine engine (internal/core) runs
// on it unchanged — which is exactly the appendix's point: the mechanism is
// not tied to one approximate-memory technology.
package spintronic

import (
	"fmt"
	"math"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

// Config is one operating point of the approximate spintronic memory.
type Config struct {
	// Saving is the fraction of the precise write energy saved by each
	// approximate write (e.g. 0.33 = each write costs 67% of precise).
	Saving float64
	// BitErrorProb is the independent per-bit flip probability of one
	// write at this operating point.
	BitErrorProb float64
	// ReadBitErrorProb, when nonzero, lifts the appendix's "reads are
	// always precise for simplicity" assumption: each read returns the
	// stored value with independent per-bit flips at this probability.
	// Read errors are transient — the stored value is unchanged — so
	// repeated reads of one cell can disagree, like mlc.AnalogArray.
	ReadBitErrorProb float64
}

// Validate reports whether the operating point is meaningful.
func (c Config) Validate() error {
	if c.Saving < 0 || c.Saving >= 1 {
		return fmt.Errorf("spintronic: Saving = %v out of [0, 1)", c.Saving)
	}
	if c.BitErrorProb < 0 || c.BitErrorProb > 0.5 {
		return fmt.Errorf("spintronic: BitErrorProb = %v out of [0, 0.5]", c.BitErrorProb)
	}
	if c.ReadBitErrorProb < 0 || c.ReadBitErrorProb > 0.5 {
		return fmt.Errorf("spintronic: ReadBitErrorProb = %v out of [0, 0.5]", c.ReadBitErrorProb)
	}
	return nil
}

// Presets returns the four operating points evaluated in Appendix A, in
// increasing aggressiveness.
func Presets() []Config {
	return []Config{
		{Saving: 0.05, BitErrorProb: 1e-7},
		{Saving: 0.20, BitErrorProb: 1e-6},
		{Saving: 0.33, BitErrorProb: 1e-5},
		{Saving: 0.50, BitErrorProb: 1e-4},
	}
}

// Space is an approximate spintronic memory region compatible with
// mem.Space. Accounting follows the same batched Raw/Fold scheme as the
// PCM spaces in package mem: the hot path mutates integer counters on
// the owning array; Stats folds the array registry on demand.
type Space struct {
	cfg   Config
	r     *rng.Source
	fold  mem.Fold
	sink  mem.Sink
	addrs mem.AddressAllocator
	words []*words
	base  mem.Raw

	// logOneMinusWrite and logOneMinusRead cache ln(1−p) for geometric
	// bit-flip skipping on writes and reads respectively.
	logOneMinusWrite float64
	logOneMinusRead  float64
}

// NewSpace returns a spintronic space at operating point cfg. It panics on
// an invalid configuration (programming error).
func NewSpace(cfg Config, seed uint64) *Space {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Space{
		cfg: cfg,
		r:   rng.New(seed),
		fold: mem.Fold{
			ReadNanos:      mlc.ReadNanos,
			WriteNanos:     mlc.PreciseWriteNanos,
			EnergyPerWrite: 1 - cfg.Saving,
		},
		logOneMinusWrite: math.Log1p(-cfg.BitErrorProb),
		logOneMinusRead:  math.Log1p(-cfg.ReadBitErrorProb),
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

// corrupt flips each of v's 32 bits independently with probability p
// (whose ln(1−p) is passed precomputed), using geometric skipping so the
// common error-free case costs a single uniform draw.
func (s *Space) corrupt(v uint32, p, logOneMinusP float64) uint32 {
	if p == 0 { //nolint:floatord // exact-zero fast path on a configured probability, not an accumulated sum
		return v
	}
	bit := 0
	for {
		// Draw the distance to the next flipped bit: geometric with
		// success probability p. 1−Float64() lies in (0, 1], keeping
		// the logarithm finite.
		u := 1 - s.r.Float64()
		skip := int(math.Log(u) / logOneMinusP)
		bit += skip
		if bit >= 32 {
			return v
		}
		v ^= 1 << uint(bit)
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
	// Transient read flips (off unless ReadBitErrorProb is set): the
	// stored value stays intact.
	return w.space.corrupt(w.data[i], w.space.cfg.ReadBitErrorProb, w.space.logOneMinusRead)
}

//memlint:hotpath
func (w *words) Set(i int, v uint32) {
	stored := w.space.corrupt(v, w.space.cfg.BitErrorProb, w.space.logOneMinusWrite)
	w.raw.Writes++
	if stored != v {
		w.raw.Corrupted++
	}
	if w.sink != nil {
		w.sink.Access(mem.OpWrite, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	w.data[i] = stored
}

// GetSlice implements mem.BulkWords. With read flips enabled each read
// draws from the noise stream in index order, exactly as per-element
// Gets would.
func (w *words) GetSlice(i int, dst []uint32) {
	if w.sink != nil {
		for j := range dst {
			dst[j] = w.Get(i + j)
		}
		return
	}
	s := w.space
	if s.cfg.ReadBitErrorProb == 0 { //nolint:floatord // exact-zero fast path on a configured probability, not an accumulated sum
		w.raw.Reads += len(dst)
		copy(dst, w.data[i:i+len(dst)])
		return
	}
	w.raw.Reads += len(dst)
	for j := range dst {
		dst[j] = s.corrupt(w.data[i+j], s.cfg.ReadBitErrorProb, s.logOneMinusRead)
	}
}

// SetSlice implements mem.BulkWords: writes run through the bit-flip
// model in index order, consuming the noise stream exactly as
// per-element Sets would.
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
		stored := s.corrupt(v, s.cfg.BitErrorProb, s.logOneMinusWrite)
		if stored != v {
			corrupted++
		}
		w.data[i+j] = stored
	}
	w.raw.Writes += len(src)
	w.raw.Corrupted += corrupted
}

// Reorderable implements mem.BulkWords: untraced spintronic arrays
// commute with other arrays only when reads are precise — with
// ReadBitErrorProb set, reads share the noise stream with writes, so
// cross-array reordering would shift every later draw.
func (w *words) Reorderable() bool {
	return w.sink == nil && w.space.cfg.ReadBitErrorProb == 0 //nolint:floatord // exact-zero gate on a configured probability, not an accumulated sum
}

// Stats returns the accesses charged to this array, folded under the
// space's cost recipe.
func (w *words) Stats() mem.Stats { return w.space.fold.Stats(w.raw) }

// Peek implements mem.Peeker.
func (w *words) Peek(i int) uint32 { return w.data[i] }
