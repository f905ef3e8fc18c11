package mlc

import (
	"fmt"
	"math"

	"approxsort/internal/rng"
)

// Table is a calibrated fast WordModel. At construction it runs a
// Monte-Carlo campaign through the exact cell model and records, per target
// level, (a) the distribution of the digital level read back and (b) the
// distribution of P&V pulse counts. WriteWord then samples those empirical
// distributions instead of re-running the P&V loop, which is roughly an
// order of magnitude faster for multi-million-element sorting sweeps.
//
// The two distributions are sampled independently. That preserves the
// marginal error rate and the marginal latency exactly (the quantities
// every experiment in the paper reports); only the latency↔error
// correlation within a single cell write is lost, and nothing consumes it.
// TestTableMatchesExact asserts the statistical agreement.
//
// A Table is immutable after construction: WriteWord only reads the
// distributions and draws randomness from the caller-supplied source, so
// one table may be shared by any number of goroutines (see TableCache).
type Table struct {
	p Params

	// resCum[l] is the cumulative distribution over read-back levels for
	// a write targeting level l.
	resCum [][]float64
	// itersCum[l] is the cumulative distribution over pulse counts
	// (index i holds P(#P <= i+1)) for a write targeting level l.
	itersCum [][]float64
	// avgP is the mean pulse count per cell write across levels.
	avgP float64
	// errProb[l] is the probability that a write of level l reads back
	// as a different level.
	errProb []float64

	// Dense fixed-point sampler state, derived from resCum/itersCum at
	// construction. The RNG's Float64() is float64(Uint64()>>11)·2⁻⁵³
	// exactly, so with k = Uint64()>>11 the float comparison u < cum[i]
	// is equivalent to the integer comparison k < ceil(cum[i]·2⁵³) —
	// bit-for-bit, while consuming the identical stream. resThr[l]
	// holds Levels thresholds and itersThr[l] MaxIters thresholds for
	// target level l. The prefix table maps (level, top 8 bits of k) to
	// the selected index, or to the first index a threshold scan can
	// select when the bucket straddles a threshold (see drawPrefix). It
	// is one flat table of Levels<<9 entries: row level<<9 holds the
	// read-back prefix at +0 and the pulse-count prefix at +256.
	resThr   [][]uint64
	itersThr [][]uint64
	pfx      []uint16

	// bitsPerCell and levelMask cache the per-cell shift/mask state so
	// WriteWord does not re-derive it per word.
	bitsPerCell uint
	levelMask   uint32
}

// DefaultTableSamples is the per-level Monte-Carlo sample count used by
// NewTable when samples <= 0 is given. 40k samples bound the error-rate
// estimate's standard error below ~2.5e-3 per level, well under the effect
// sizes in the paper's figures.
const DefaultTableSamples = 40000

// NewTable builds a table-driven model for p using the given number of
// Monte-Carlo samples per level (DefaultTableSamples if samples <= 0) and
// a deterministic seed. It panics on invalid params.
func NewTable(p Params, samples int, seed uint64) *Table {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if samples <= 0 {
		samples = DefaultTableSamples
	}
	r := rng.New(seed)
	t := &Table{
		p:        p,
		resCum:   make([][]float64, p.Levels),
		itersCum: make([][]float64, p.Levels),
		errProb:  make([]float64, p.Levels),
	}
	totalIters := 0
	for level := 0; level < p.Levels; level++ {
		resCount := make([]int, p.Levels)
		iterCount := make([]int, p.MaxIters)
		errs := 0
		for s := 0; s < samples; s++ {
			got, iters := p.WriteReadCell(r, level)
			resCount[got]++
			if iters > p.MaxIters {
				iters = p.MaxIters
			}
			iterCount[iters-1]++
			totalIters += iters
			if got != level {
				errs++
			}
		}
		t.resCum[level] = cumulate(resCount, samples)
		t.itersCum[level] = cumulate(iterCount, samples)
		t.errProb[level] = float64(errs) / float64(samples)
	}
	t.avgP = float64(totalIters) / float64(p.Levels*samples)
	t.buildDense()
	return t
}

// buildDense derives the fixed-point threshold arrays and prefix tables
// from the float cumulative distributions.
func (t *Table) buildDense() {
	t.bitsPerCell = uint(t.p.BitsPerCell())
	t.levelMask = uint32(t.p.Levels - 1)
	t.resThr = make([][]uint64, t.p.Levels)
	t.itersThr = make([][]uint64, t.p.Levels)
	t.pfx = make([]uint16, t.p.Levels<<9)
	for level := range t.p.Levels {
		t.resThr[level] = fixedThresholds(t.resCum[level])
		t.itersThr[level] = fixedThresholds(t.itersCum[level])
		row := t.pfx[level<<9:]
		drawPrefix(row[:256], t.resThr[level])
		drawPrefix(row[256:512], t.itersThr[level])
	}
}

// fixedThresholds lifts a float cumulative distribution onto the 53-bit
// draw lattice: thresholds[i] = ceil(cum[i]·2⁵³). cum[i]·2⁵³ is exact
// (power-of-two scaling of a float64 ≤ 1), so k < thresholds[i] holds
// for exactly the draws k whose Float64() image is < cum[i]. The final
// entry is 2⁵³ (cum ends at 1), strictly above every possible draw, so
// a threshold scan always terminates in range.
func fixedThresholds(cum []float64) []uint64 {
	thr := make([]uint64, len(cum))
	for i, c := range cum {
		thr[i] = uint64(math.Ceil(c * (1 << 53)))
	}
	return thr
}

// scanPfx flags a prefix entry whose bucket straddles a threshold
// boundary: the sampler must confirm by scanning thresholds from the
// encoded start index. Unflagged (pure) buckets resolve the draw with
// the single prefix load — no threshold is crossed inside the bucket,
// so every draw with that top byte selects the same index.
const scanPfx = 1 << 15

// drawPrefix fills pfx, the 256-entry top-bits lookup for one threshold
// array, keyed by the draw's top byte b = k>>45. A draw k with top byte
// b lies in [b<<45, (b+1)<<45); when that whole interval falls between
// two adjacent thresholds the entry holds the selected index directly,
// otherwise it holds scanPfx | firstCandidate. Distributions here are
// short and front-loaded, so almost all buckets are pure and the
// sampler's common path is one 16-bit load per draw.
func drawPrefix(pfx []uint16, thr []uint64) {
	i := 0
	for b := 0; b < 256; b++ {
		lo := uint64(b) << 45
		for thr[i] <= lo {
			i++
		}
		if lo+1<<45 <= thr[i] {
			pfx[b] = uint16(i)
		} else {
			pfx[b] = scanPfx | uint16(i)
		}
	}
}

func cumulate(counts []int, total int) []float64 {
	cum := make([]float64, len(counts))
	running := 0
	for i, c := range counts {
		running += c
		cum[i] = float64(running) / float64(total)
	}
	// Guard against floating point drift: force the final entry to 1 so
	// inverse-CDF sampling can never run off the end.
	cum[len(cum)-1] = 1
	return cum
}

// sampleCum draws an index from a cumulative distribution.
func sampleCum(r *rng.Source, cum []float64) int {
	u := r.Float64()
	// Distributions here are short (4 levels, few-tens iterations) and
	// front-loaded, so a linear scan beats binary search in practice.
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// WriteWord implements WordModel by sampling the per-level empirical
// distributions for each of the word's cells. It runs on the dense
// fixed-point sampler: two Uint64 draws per cell (read-back level, then
// pulse count — the same stream order and count as inverse-CDF sampling
// of resCum/itersCum), each resolved by a prefix lookup and, in a
// straddling bucket, a short threshold scan. TestTableDenseMatchesFloat
// pins bit-equivalence against the float path.
//
//memlint:hotpath
func (t *Table) WriteWord(r *rng.Source, w uint32) (uint32, int) {
	s0, s1, s2, s3 := r.State()
	var stored uint32
	var total int
	if t.levelMask == 3 {
		stored, total, s0, s1, s2, s3 = t.writeWord4(w, s0, s1, s2, s3)
	} else {
		stored, total, s0, s1, s2, s3 = t.writeWord(w, s0, s1, s2, s3)
	}
	r.SetState(s0, s1, s2, s3)
	return stored, total
}

// WriteWords writes each src word through the model, storing the
// read-back values in dst[i] and returning the total pulse count across
// the batch. It consumes the RNG stream exactly as len(src) sequential
// WriteWord calls would — bulk callers (mem.SetSlice) stay bit-identical
// to per-word loops — and loads and stores the RNG state once per batch.
//
//memlint:hotpath
func (t *Table) WriteWords(r *rng.Source, dst, src []uint32) int {
	if len(dst) < len(src) {
		panic("mlc: WriteWords dst shorter than src")
	}
	dst = dst[:len(src)]
	s0, s1, s2, s3 := r.State()
	total := 0
	var iters int
	if t.levelMask == 3 {
		for i, w := range src {
			dst[i], iters, s0, s1, s2, s3 = t.writeWord4(w, s0, s1, s2, s3)
			total += iters
		}
	} else {
		for i, w := range src {
			dst[i], iters, s0, s1, s2, s3 = t.writeWord(w, s0, s1, s2, s3)
			total += iters
		}
	}
	r.SetState(s0, s1, s2, s3)
	return total
}

// writeWord samples one word on an RNG state the caller holds: it takes
// the four xoshiro256** words and returns them advanced by the word's
// 2·cells draws, so they stay in registers across the cell loop (and,
// through WriteWords, across a batch) instead of being loaded from and
// stored to memory on every draw. It serves every level count; 4-level
// cells take writeWord4, which draws the same stream.
//
//memlint:hotpath
func (t *Table) writeWord(w uint32, s0, s1, s2, s3 uint64) (uint32, int, uint64, uint64, uint64, uint64) {
	pfx := t.pfx
	bits, mask := t.bitsPerCell, t.levelMask
	var stored uint32
	var k uint64
	total := 0
	for shift := uint(0); shift < 32; shift += bits {
		level := w >> shift & mask
		row := uint(level) << 9
		k, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
		k >>= 11
		i := uint(pfx[row|uint(k>>45)])
		if i >= scanPfx {
			i = scanThresholds(t.resThr[level], i, k)
		}
		k, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
		k >>= 11
		j := uint(pfx[row|256|uint(k>>45)])
		if j >= scanPfx {
			j = scanThresholds(t.itersThr[level], j, k)
		}
		stored |= uint32(i) << shift
		total += int(j) + 1
	}
	return stored, total, s0, s1, s2, s3
}

// writeWord4 is writeWord for 4-level (2-bit) cells, the configuration
// of every sortd job and every paper figure but the density ablation.
// It draws the same stream in the same order and differs only in loop
// mechanics: x carries the word above a sentinel bit and loses one cell
// per iteration, so the loop needs no counter; masking the index with
// 4<<9-1 both extracts the level and proves the index in range, so no
// bounds check is emitted; each read-back level is shifted in from the
// top, so after 16 cells the first sits at bit 0; and total starts at
// the 16 pulses every cell pays before its sampled extra ones.
//
//memlint:hotpath
func (t *Table) writeWord4(w uint32, s0, s1, s2, s3 uint64) (uint32, int, uint64, uint64, uint64, uint64) {
	pfx := (*[4 << 9]uint16)(t.pfx)
	var stored uint32
	var k uint64
	total := 16
	for x := uint64(w) | 1<<32; x != 1; x >>= 2 {
		row := uint(x) << 9
		k, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
		k >>= 11
		i := uint(pfx[(row|uint(k>>45))&(4<<9-1)])
		if i >= scanPfx {
			i = scanThresholds(t.resThr[x&3], i, k)
		}
		k, s0, s1, s2, s3 = rng.Step(s0, s1, s2, s3)
		k >>= 11
		j := uint(pfx[(row|256|uint(k>>45))&(4<<9-1)])
		if j >= scanPfx {
			j = scanThresholds(t.itersThr[x&3], j, k)
		}
		stored = stored>>2 | uint32(i)<<30
		total += int(j)
	}
	return stored, total, s0, s1, s2, s3
}

// scanThresholds resolves a draw k whose prefix entry pfx is flagged
// scanPfx: starting at the encoded first candidate, it returns the first
// index whose threshold lies above k. Only draws in a straddling bucket
// get here (a handful of the 2·256 buckets per level at the paper's
// operating points). It is small enough to inline into the cold branch;
// an out-of-line call would clobber every register the cell loop keeps
// live, and the compiler would then spill them on the hot path.
func scanThresholds(thr []uint64, pfx uint, k uint64) uint {
	i := pfx &^ scanPfx
	for k >= thr[i] {
		i++
	}
	return i
}

// CellsPerWord implements WordModel.
func (t *Table) CellsPerWord() int { return t.p.CellsPerWord() }

// Params implements WordModel.
func (t *Table) Params() Params { return t.p }

// AvgP returns the calibrated mean P&V pulse count per cell write.
func (t *Table) AvgP() float64 { return t.avgP }

// AvgWriteNanos returns the calibrated mean word-write latency: AvgP
// scaled so the reference precise point (ReferenceAvgP pulses per cell)
// costs PreciseWriteNanos. It is the p(t)·(precise latency) device clock
// the serving layer charges for an approximate MLC region.
func (t *Table) AvgWriteNanos() float64 {
	return t.avgP / ReferenceAvgP * PreciseWriteNanos
}

// CellErrorProb returns the probability that a cell write targeting level
// reads back as a different level.
func (t *Table) CellErrorProb(level int) float64 {
	if level < 0 || level >= t.p.Levels {
		panic(fmt.Sprintf("mlc: level %d out of range [0,%d)", level, t.p.Levels))
	}
	return t.errProb[level]
}

// MeanCellErrorProb returns the cell error probability averaged over
// uniformly distributed target levels.
func (t *Table) MeanCellErrorProb() float64 {
	sum := 0.0
	for _, e := range t.errProb {
		sum += e
	}
	return sum / float64(len(t.errProb))
}

// WordErrorProb returns the probability that at least one cell of a
// uniformly random word is corrupted, assuming independent cells (each of
// the word's cells targets a uniformly distributed level).
func (t *Table) WordErrorProb() float64 {
	okCell := 1 - t.MeanCellErrorProb()
	p := 1.0
	for i := 0; i < t.CellsPerWord(); i++ {
		p *= okCell
	}
	return 1 - p
}

// PRatio returns p(t) as defined in Section 2.2: the ratio of the average
// pulse count under this configuration to the average pulse count on
// precise memory (same parameters, T = PreciseT).
func (t *Table) PRatio(samples int, seed uint64) float64 {
	precise := t.p
	precise.T = PreciseT
	ref := CachedTable(precise, samples, seed)
	return t.avgP / ref.avgP
}
