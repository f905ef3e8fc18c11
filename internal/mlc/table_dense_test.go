package mlc

import (
	"reflect"
	"testing"

	"approxsort/internal/rng"
)

// writeWordFloat is the retained float-path reference sampler: inverse-CDF
// sampling of resCum/itersCum through sampleCum, exactly as WriteWord ran
// before the dense fixed-point tables. It consumes two Float64-equivalent
// draws per cell in res-then-iters order.
func writeWordFloat(t *Table, r *rng.Source, w uint32) (uint32, int) {
	bits := uint(t.p.BitsPerCell())
	mask := uint32(t.p.Levels - 1)
	var stored uint32
	total := 0
	for shift := uint(0); shift < 32; shift += bits {
		level := int(w >> shift & mask)
		stored |= uint32(sampleCum(r, t.resCum[level])) << shift
		total += sampleCum(r, t.itersCum[level]) + 1
	}
	return stored, total
}

// TestTableDenseMatchesFloat pins the dense sampler's bit-equivalence:
// for identical RNG streams, WriteWord must return the same stored word
// and pulse count as the float inverse-CDF path for every draw, and must
// leave the stream at the same position. The threshold lift is exact —
// Float64() is float64(Uint64()>>11)·2⁻⁵³, so with k = Uint64()>>11 the
// comparison u < cum[i] is equivalent to k < ceil(cum[i]·2⁵³) — and this
// test guards that equivalence across operating points, level counts,
// and mixed word values.
func TestTableDenseMatchesFloat(t *testing.T) {
	cases := []Params{
		Approximate(0.01),
		Approximate(0.055),
		Approximate(0.1),
		Approximate(MaxT),
		WithLevels(2, 0.2),
		WithLevels(16, 0.02),
	}
	for _, p := range cases {
		tab := NewTable(p, 4000, CalibrationSeed)
		rDense := rng.New(0xd15ea5e)
		rFloat := rng.New(0xd15ea5e)
		rProbe := rng.New(0xd15ea5e)
		straddled := 0
		for i := 0; i < 20000; i++ {
			w := uint32(i) * 2654435761
			gotV, gotIters := tab.WriteWord(rDense, w)
			wantV, wantIters := writeWordFloat(tab, rFloat, w)
			if gotV != wantV || gotIters != wantIters {
				t.Fatalf("L=%d T=%g word %#x: dense (%#x, %d) != float (%#x, %d)",
					p.Levels, p.T, w, gotV, gotIters, wantV, wantIters)
			}
			straddled += straddlingDraws(tab, rProbe, w)
		}
		if !reflect.DeepEqual(rDense, rFloat) {
			t.Fatalf("L=%d T=%g: RNG streams diverged after 20k words", p.Levels, p.T)
		}
		// The comparison above only covers the threshold scan if some
		// draw landed in a straddling prefix bucket.
		if straddled == 0 {
			t.Fatalf("L=%d T=%g: no draw hit a straddling bucket; the scan path went untested", p.Levels, p.T)
		}
		checkWriteWordsMatchFloat(t, tab)
	}
}

// straddlingDraws consumes one word's draws from r exactly as WriteWord
// does and counts those whose prefix bucket is flagged scanPfx, that is,
// the draws the sampler resolves by a threshold scan.
func straddlingDraws(t *Table, r *rng.Source, w uint32) int {
	bits := uint(t.p.BitsPerCell())
	mask := uint32(t.p.Levels - 1)
	n := 0
	for shift := uint(0); shift < 32; shift += bits {
		level := w >> shift & mask
		if t.resPfx[level][uint8(r.Uint64()>>56)] >= scanPfx {
			n++
		}
		if t.itersPfx[level][uint8(r.Uint64()>>56)] >= scanPfx {
			n++
		}
	}
	return n
}

// checkWriteWordsMatchFloat is the batch leg of TestTableDenseMatchesFloat:
// WriteWords, which carries the RNG state across a whole batch, must
// store the same words, return the same pulse total and leave the stream
// at the same position as per-word sampling on the float reference, for
// empty, single-word, odd-length and full-chunk batches.
func checkWriteWordsMatchFloat(t *testing.T, tab *Table) {
	t.Helper()
	p := tab.Params()
	rBatch := rng.New(0xba7c4)
	rFloat := rng.New(0xba7c4)
	next := uint32(0)
	for _, size := range []int{0, 1, 7, 256, 1, 0, 256, 7} {
		src := make([]uint32, size)
		for i := range src {
			src[i] = next * 2654435761
			next++
		}
		dst := make([]uint32, size)
		gotTotal := tab.WriteWords(rBatch, dst, src)
		wantTotal := 0
		for i, w := range src {
			wantV, iters := writeWordFloat(tab, rFloat, w)
			if dst[i] != wantV {
				t.Fatalf("L=%d T=%g batch of %d, word %d: stored %#x, float %#x",
					p.Levels, p.T, size, i, dst[i], wantV)
			}
			wantTotal += iters
		}
		if gotTotal != wantTotal {
			t.Fatalf("L=%d T=%g batch of %d: total %d, float %d", p.Levels, p.T, size, gotTotal, wantTotal)
		}
	}
	if !reflect.DeepEqual(rBatch, rFloat) {
		t.Fatalf("L=%d T=%g: RNG streams diverged across WriteWords batches", p.Levels, p.T)
	}
}
