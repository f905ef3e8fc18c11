package mlc

import (
	"math"
	"testing"

	"approxsort/internal/rng"
)

func TestTableDistributionsAreProper(t *testing.T) {
	tab := NewTable(Approximate(0.08), 5000, 1)
	for level := 0; level < 4; level++ {
		res := tab.resCum[level]
		if res[len(res)-1] != 1 {
			t.Errorf("level %d: result CDF does not end at 1", level)
		}
		it := tab.itersCum[level]
		if it[len(it)-1] != 1 {
			t.Errorf("level %d: iteration CDF does not end at 1", level)
		}
		for i := 1; i < len(res); i++ {
			if res[i] < res[i-1] {
				t.Errorf("level %d: result CDF not monotone", level)
			}
		}
	}
}

// TestTableMatchesExact is the statistical-equivalence contract between the
// two engines promised in DESIGN.md: error rates and mean pulse counts must
// agree within Monte-Carlo tolerance.
func TestTableMatchesExact(t *testing.T) {
	for _, T := range []float64{0.025, 0.055, 0.09, 0.12} {
		p := Approximate(T)
		tab := NewTable(p, 60000, 2)
		exact := MonteCarlo(p, 30000, 3)

		if d := math.Abs(tab.AvgP() - exact.AvgP); d > 0.05 {
			t.Errorf("T=%v: table AvgP %v vs exact %v (|d|=%v)", T, tab.AvgP(), exact.AvgP, d)
		}
		tabErr := tab.MeanCellErrorProb()
		if d := math.Abs(tabErr - exact.CellErrorRate); d > 0.005+0.2*exact.CellErrorRate {
			t.Errorf("T=%v: table cell error %v vs exact %v", T, tabErr, exact.CellErrorRate)
		}

		// And the sampled word path must reproduce the word error rate.
		r := rng.New(4)
		wordErrs := 0
		const words = 30000
		for i := 0; i < words; i++ {
			w := r.Uint32()
			stored, iters := tab.WriteWord(r, w)
			if iters < tab.CellsPerWord() {
				t.Fatalf("table word write reported %d iters", iters)
			}
			if stored != w {
				wordErrs++
			}
		}
		got := float64(wordErrs) / words
		if d := math.Abs(got - exact.WordErrorRate); d > 0.01+0.2*exact.WordErrorRate {
			t.Errorf("T=%v: table word error %v vs exact %v", T, got, exact.WordErrorRate)
		}
	}
}

func TestTablePRatio(t *testing.T) {
	tab := NewTable(Approximate(0.1), 20000, 5)
	p := tab.PRatio(20000, 6)
	if p < 0.4 || p > 0.6 {
		t.Errorf("table p(0.1) = %v, want ~0.5", p)
	}
	precise := NewTable(Precise(), 20000, 7)
	if p := precise.PRatio(20000, 8); math.Abs(p-1) > 0.03 {
		t.Errorf("p(precise) = %v, want ~1", p)
	}
}

func TestCellErrorProbBounds(t *testing.T) {
	tab := NewTable(Approximate(0.1), 10000, 9)
	for level := 0; level < 4; level++ {
		e := tab.CellErrorProb(level)
		if e < 0 || e > 1 {
			t.Errorf("level %d error prob %v out of [0,1]", level, e)
		}
	}
	// Top level saturates upward, so with unidirectional drift its error
	// probability should be the lowest.
	top := tab.CellErrorProb(3)
	for level := 0; level < 3; level++ {
		if top > tab.CellErrorProb(level) {
			t.Errorf("top level error %v exceeds level %d error %v",
				top, level, tab.CellErrorProb(level))
		}
	}
}

func TestCellErrorProbPanicsOutOfRange(t *testing.T) {
	tab := NewTable(Precise(), 1000, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("CellErrorProb(-1) did not panic")
		}
	}()
	tab.CellErrorProb(-1)
}

func TestAnalogArrayRoundTripPrecise(t *testing.T) {
	a := NewAnalogArray(Precise(), 256, 11)
	r := rng.New(12)
	want := make([]uint32, a.Len())
	for i := range want {
		want[i] = r.Uint32()
		a.Set(i, want[i])
	}
	errs := 0
	for i := range want {
		if a.Get(i) != want[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("precise analog array corrupted %d/%d words", errs, len(want))
	}
	if a.Writes() != 256 || a.Reads() != 256 {
		t.Errorf("access counts writes=%d reads=%d, want 256/256", a.Writes(), a.Reads())
	}
	if a.TotalIters() < 256*16 {
		t.Errorf("TotalIters = %d, want at least one pulse per cell", a.TotalIters())
	}
	if a.WriteLatencyNanos() <= 0 {
		t.Error("WriteLatencyNanos must be positive")
	}
}

func TestAnalogArrayReadsResample(t *testing.T) {
	// At the guard-band edge repeated reads of the same cell should not
	// always agree — that is the property AnalogArray exists to model.
	a := NewAnalogArray(Approximate(0.124), 64, 13)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, 0x55555555) // level pattern 1111..., mid levels
	}
	diff := false
	for i := 0; i < a.Len() && !diff; i++ {
		first := a.Get(i)
		for k := 0; k < 8; k++ {
			if a.Get(i) != first {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("analog reads never disagreed at T=0.124; drift resampling looks broken")
	}
}

func BenchmarkExactWriteWord(b *testing.B) {
	model := NewExact(Approximate(0.055))
	r := rng.New(1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		s, _ := model.WriteWord(r, uint32(i)*2654435761)
		sink ^= s
	}
	_ = sink
}

func BenchmarkTableWriteWord(b *testing.B) {
	tab := NewTable(Approximate(0.055), 0, 1)
	r := rng.New(1)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		s, _ := tab.WriteWord(r, uint32(i)*2654435761)
		sink ^= s
	}
	_ = sink
}

// BenchmarkTableWriteWords measures the batch path mem.SetSlice takes:
// one WriteWords call per 1024-word batch, reported per word.
func BenchmarkTableWriteWords(b *testing.B) {
	tab := CachedTable(Approximate(0.055), 0, CalibrationSeed)
	r := rng.New(1)
	src := make([]uint32, 1024)
	for i := range src {
		src[i] = uint32(i) * 2654435761
	}
	dst := make([]uint32, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.WriteWords(r, dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/word")
}
