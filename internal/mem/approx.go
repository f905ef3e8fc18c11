package mem

import (
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

// Latency constants re-exported from the cell model for local use.
const (
	readNanos         = mlc.ReadNanos
	preciseWriteNanos = mlc.PreciseWriteNanos
)

// ApproxSpace is the approximate-PCM region of the hybrid system. Every
// word write runs through an mlc.WordModel, which may corrupt the stored
// value and reports the P&V pulse count that determines write latency and
// energy.
//
// Accounting is batched: the hot path mutates only the owning array's Raw
// integer counters, and Stats derives the latency/energy aggregate across
// every array the space has allocated via the space's Fold. Each write is
// counted by exactly one array, so the aggregate charges it exactly once
// no matter how often Stats or ResetStats run.
type ApproxSpace struct {
	model mlc.WordModel
	// table devirtualizes the common case: when the model is the
	// calibrated *mlc.Table, the hot path calls it directly instead of
	// through the WordModel interface.
	table *mlc.Table
	r     *rng.Source
	fold  Fold
	addrs AddressAllocator
	sink  Sink
	// words is the registry of every array allocated from this space:
	// the Stats aggregate folds over it, and SetSink patches each
	// array's cached sink so tracing can attach after allocation.
	words []*approxWords
	// base snapshots the registry's raw totals at the last ResetStats.
	base Raw
}

// NewApproxSpace returns an approximate space backed by model, drawing
// randomness from a fresh stream seeded with seed.
func NewApproxSpace(model mlc.WordModel, seed uint64) *ApproxSpace {
	table, _ := model.(*mlc.Table)
	return &ApproxSpace{
		model: model,
		table: table,
		r:     rng.New(seed),
		fold:  Fold{ReadNanos: readNanos, PulseCells: model.CellsPerWord()},
	}
}

// NewApproxSpaceAt is a convenience constructor: a table-driven MLC model
// at target half-width T with default calibration sampling. The model
// comes from the shared mlc table cache under the fixed calibration seed,
// so every space at the same T reuses one calibrated table; seed drives
// only this space's noise stream.
func NewApproxSpaceAt(t float64, seed uint64) *ApproxSpace {
	return NewApproxSpace(mlc.CachedTable(mlc.Approximate(t), 0, mlc.CalibrationSeed), seed)
}

// SetSink attaches a trace sink receiving every access in this space,
// including accesses to arrays allocated before the attach (their cached
// sink binding is patched through the registry). Pass nil to detach.
func (s *ApproxSpace) SetSink(sink Sink) {
	s.sink = sink
	for _, w := range s.words {
		w.sink = sink
	}
}

// Model returns the word model behind the space.
func (s *ApproxSpace) Model() mlc.WordModel { return s.model }

// Fold returns the space's cost recipe.
func (s *ApproxSpace) Fold() Fold { return s.fold }

// Alloc implements Space. The returned array's sink binding is chosen
// here (and re-chosen by SetSink), so the access hot path tests one
// array-local field instead of chasing the space pointer.
func (s *ApproxSpace) Alloc(n int) Words {
	w := &approxWords{
		space: s,
		sink:  s.sink,
		base:  s.addrs.Take(n),
		data:  make([]uint32, n),
	}
	s.words = append(s.words, w)
	return w
}

// rawTotal sums the raw counters across the array registry.
func (s *ApproxSpace) rawTotal() Raw {
	var total Raw
	for _, w := range s.words {
		total.Add(w.raw)
	}
	return total
}

// Stats implements Space: the aggregate across every array the space
// ever allocated, derived once from raw counts by the space's Fold.
func (s *ApproxSpace) Stats() Stats { return s.fold.Stats(s.rawTotal().Sub(s.base)) }

// ResetStats zeroes the aggregate by snapshotting the current raw totals
// as the new baseline. Arrays allocated before the reset stay usable and
// their later accesses fold into the post-reset aggregate exactly once:
// each access mutates a single raw counter on its array, and the baseline
// subtraction removes precisely the accesses made before the reset.
func (s *ApproxSpace) ResetStats() { s.base = s.rawTotal() }

// Approximate implements Space.
func (s *ApproxSpace) Approximate() bool { return true }

// MinWriteNanos returns the least latency one word write can cost: one
// P&V pulse per cell, about 1/ReferenceAvgP of a precise write.
func (s *ApproxSpace) MinWriteNanos() float64 { return s.fold.MinWriteNanos() }

type approxWords struct {
	space *ApproxSpace
	// sink caches the space's sink (nil when untraced) so the hot path
	// branches on one local field; SetSink keeps it current.
	sink Sink
	base uint64
	data []uint32
	raw  Raw
}

func (w *approxWords) Len() int { return len(w.data) }

//memlint:hotpath
func (w *approxWords) Get(i int) uint32 {
	w.raw.Reads++
	if w.sink != nil {
		w.sink.Access(OpRead, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	return w.data[i]
}

//memlint:hotpath
func (w *approxWords) Set(i int, v uint32) {
	s := w.space
	var stored uint32
	var iters int
	if s.table != nil {
		stored, iters = s.table.WriteWord(s.r, v)
	} else {
		stored, iters = s.model.WriteWord(s.r, v) //nolint:hotpath // foreign word models only; *mlc.Table is devirtualized above
	}
	w.raw.Writes++
	w.raw.Iters += iters
	if stored != v {
		w.raw.Corrupted++
	}
	if w.sink != nil {
		w.sink.Access(OpWrite, w.base+uint64(i)*4, 4) //nolint:hotpath // traced arrays opt back into per-access sink dispatch
	}
	w.data[i] = stored
}

// GetSlice implements BulkWords. Reads never draw model randomness, so
// the bulk path is a copy plus one counter bump; traced arrays fall back
// to per-element Gets to emit the identical event stream.
func (w *approxWords) GetSlice(i int, dst []uint32) {
	if w.sink != nil {
		for j := range dst {
			dst[j] = w.Get(i + j)
		}
		return
	}
	w.raw.Reads += len(dst)
	copy(dst, w.data[i:i+len(dst)])
}

// SetSlice implements BulkWords: the batch runs through the model in
// index order, consuming the noise stream exactly as len(src) Set calls
// would, with accounting amortized over the batch.
func (w *approxWords) SetSlice(i int, src []uint32) {
	s := w.space
	if w.sink != nil || s.table == nil {
		for j, v := range src {
			w.Set(i+j, v)
		}
		return
	}
	dst := w.data[i : i+len(src)]
	w.raw.Iters += s.table.WriteWords(s.r, dst, src)
	w.raw.Writes += len(src)
	corrupted := 0
	for j, v := range src {
		if dst[j] != v {
			corrupted++
		}
	}
	w.raw.Corrupted += corrupted
}

// Reorderable implements BulkWords: MLC reads are noiseless, so an
// untraced array's accesses commute with other arrays'.
func (w *approxWords) Reorderable() bool { return w.sink == nil }

// Stats returns the accesses charged to this array, folded under the
// space's cost recipe.
func (w *approxWords) Stats() Stats { return w.space.fold.Stats(w.raw) }

// Peek implements Peeker.
func (w *approxWords) Peek(i int) uint32 { return w.data[i] }
