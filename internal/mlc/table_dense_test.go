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
		row := uint(w>>shift&mask) << 9
		if t.pfx[row|uint(r.Uint64()>>56)] >= scanPfx {
			n++
		}
		if t.pfx[row|256|uint(r.Uint64()>>56)] >= scanPfx {
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

// TestWriteWord4MatchesGeneric pins the 4-level cell loop against the
// generic one on the same table: at every T of the regression grid (plus
// the model's extremes), for random words, writeWord4 must return the
// same stored word and pulse total and leave the RNG in the same state
// as writeWord, word by word. WriteWords, which takes the 4-level loop
// for these tables, must match per-word generic sampling for empty,
// single-word, odd-length and full-chunk batches.
func TestWriteWord4MatchesGeneric(t *testing.T) {
	for _, T := range []float64{0.01, 0.03, 0.055, 0.1, MaxT} {
		tab := NewTable(Approximate(T), 4000, CalibrationSeed)
		if tab.Params().Levels != 4 {
			t.Fatalf("T=%g: table has %d levels, want 4", T, tab.Params().Levels)
		}
		words := rng.New(0x4c0de)
		g0, g1, g2, g3 := rng.New(0x5eed).State()
		f0, f1, f2, f3 := g0, g1, g2, g3
		for i := 0; i < 100000; i++ {
			w := uint32(words.Uint64())
			var gotV, wantV uint32
			var gotN, wantN int
			gotV, gotN, f0, f1, f2, f3 = tab.writeWord4(w, f0, f1, f2, f3)
			wantV, wantN, g0, g1, g2, g3 = tab.writeWord(w, g0, g1, g2, g3)
			if gotV != wantV || gotN != wantN {
				t.Fatalf("T=%g word %d (%#x): 4-level (%#x, %d) != generic (%#x, %d)",
					T, i, w, gotV, gotN, wantV, wantN)
			}
			if f0 != g0 || f1 != g1 || f2 != g2 || f3 != g3 {
				t.Fatalf("T=%g word %d (%#x): RNG states diverged", T, i, w)
			}
		}

		rBatch := rng.New(0xba7c4)
		g0, g1, g2, g3 = rBatch.State()
		for _, size := range []int{0, 1, 7, 256, 1, 0, 256, 7} {
			src := make([]uint32, size)
			for i := range src {
				src[i] = uint32(words.Uint64())
			}
			dst := make([]uint32, size)
			gotTotal := tab.WriteWords(rBatch, dst, src)
			wantTotal := 0
			for i, w := range src {
				var wantV uint32
				var n int
				wantV, n, g0, g1, g2, g3 = tab.writeWord(w, g0, g1, g2, g3)
				if dst[i] != wantV {
					t.Fatalf("T=%g batch of %d, word %d: stored %#x, generic %#x", T, size, i, dst[i], wantV)
				}
				wantTotal += n
			}
			if gotTotal != wantTotal {
				t.Fatalf("T=%g batch of %d: total %d, generic %d", T, size, gotTotal, wantTotal)
			}
			if s0, s1, s2, s3 := rBatch.State(); s0 != g0 || s1 != g1 || s2 != g2 || s3 != g3 {
				t.Fatalf("T=%g batch of %d: RNG states diverged", T, size)
			}
		}
	}
}
