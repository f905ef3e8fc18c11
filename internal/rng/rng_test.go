package rng

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestReseedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Norm() // populate the spare so Reseed must clear it
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

// TestStepMatchesUint64 pins the register-resident stepping API to the
// Source methods: Step threaded from State reproduces Uint64 draw for
// draw, and SetState leaves the Source deep-equal to one advanced by
// Uint64, pending Norm spare included.
func TestStepMatchesUint64(t *testing.T) {
	ref := New(0x5eed)
	ref.Norm() // leave a spare pending; stepping must not touch it
	r := *ref
	s0, s1, s2, s3 := r.State()
	for i := 0; i < 100000; i++ {
		var got uint64
		got, s0, s1, s2, s3 = Step(s0, s1, s2, s3)
		if want := ref.Uint64(); got != want {
			t.Fatalf("draw %d: Step %#x != Uint64 %#x", i, got, want)
		}
	}
	r.SetState(s0, s1, s2, s3)
	if !reflect.DeepEqual(&r, ref) {
		t.Fatalf("SetState: %+v, want %+v", r, *ref)
	}
	if !r.hasSpare {
		t.Fatal("SetState dropped the pending Norm spare")
	}
	if got, want := r.Norm(), ref.Norm(); got != want {
		t.Fatalf("Norm after SetState: %v, want %v", got, want)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(3)
	s := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream matched parent %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormAt(t *testing.T) {
	r := New(23)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormAt(5, 0.5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.02 {
		t.Errorf("NormAt(5,0.5) mean = %v", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) hit rate %v", p)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	f := func(seed uint64) bool {
		r.Reseed(seed)
		out := make([]int, 50)
		r.Perm(out)
		seen := make([]bool, 50)
		for _, v := range out {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// stepSink keeps BenchmarkStep32's draws observable to the compiler.
var stepSink uint64

// BenchmarkStep32 measures 32 register-resident Step draws, one MLC word
// write's worth at four levels per cell: the RNG floor under the sampler.
func BenchmarkStep32(b *testing.B) {
	s0, s1, s2, s3 := New(1).State()
	var out, sum uint64
	for i := 0; i < b.N; i++ {
		for range 32 {
			out, s0, s1, s2, s3 = Step(s0, s1, s2, s3)
			sum += out
		}
	}
	stepSink = sum
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

func TestSplitKeyedByCoordinates(t *testing.T) {
	base := Split(1, "quicksort", 0.055)
	if base != Split(1, "quicksort", 0.055) {
		t.Error("Split is not deterministic for identical coordinates")
	}
	variants := []uint64{
		Split(2, "quicksort", 0.055),    // different base
		Split(1, "mergesort", 0.055),    // different string coord
		Split(1, "quicksort", 0.06),     // different float coord
		Split(1, 0.055, "quicksort"),    // coordinate order matters
		Split(1, "quicksort"),           // arity matters
		Split(1, "quicksort", 0.055, 0), // trailing coord matters
	}
	seen := map[uint64]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collided with an earlier stream seed", i)
		}
		seen[v] = true
	}
}

func TestSplitTypeTagging(t *testing.T) {
	// The same numeric value under different Go types must not collide:
	// int(3), uint64(3) and float64(3) are distinct coordinates.
	a := Split(9, 3)
	b := Split(9, uint64(3))
	c := Split(9, float64(3))
	if a == b || b == c || a == c {
		t.Errorf("type tags failed to separate coordinates: %x %x %x", a, b, c)
	}
}

func TestSplitPanicsOnUnsupportedType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split accepted an unsupported coordinate type")
		}
	}()
	Split(1, struct{}{})
}
