package core

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/sorts"
)

// mlcSpace returns the MLC PCM space constructor at half-width t — the
// same space memmodel's pcm-mlc backend builds at that point.
func mlcSpace(t float64) func(seed uint64) Space {
	return func(seed uint64) Space { return mem.NewApproxSpaceAt(t, seed) }
}

func sortedCopy(keys []uint32) []uint32 {
	out := append([]uint32(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkResult asserts the precision contract: output keys exactly equal
// the sorted input, and IDs are a permutation pointing each output key at
// its original record.
func checkResult(t *testing.T, keys []uint32, res Result) {
	t.Helper()
	want := sortedCopy(keys)
	if len(res.Keys) != len(want) {
		t.Fatalf("output length %d, want %d", len(res.Keys), len(want))
	}
	for i := range want {
		if res.Keys[i] != want[i] {
			t.Fatalf("output key[%d] = %d, want %d (precision violated)", i, res.Keys[i], want[i])
		}
	}
	seen := make([]bool, len(keys))
	for i, id := range res.IDs {
		if int(id) >= len(keys) || seen[id] {
			t.Fatalf("IDs not a permutation at %d", i)
		}
		seen[id] = true
		if keys[id] != res.Keys[i] {
			t.Fatalf("ID %d detached from key at position %d", id, i)
		}
	}
	if !res.Report.Sorted {
		t.Fatal("report claims output unsorted")
	}
}

func TestRunProducesPreciseOutput(t *testing.T) {
	keys := dataset.Uniform(5000, 1)
	for _, alg := range sorts.Standard(3, 6) {
		for _, T := range []float64{0.025, 0.055, 0.1} {
			res, err := Run(keys, Config{Algorithm: alg, NewSpace: mlcSpace(T), Seed: 42})
			if err != nil {
				t.Fatalf("%s T=%v: %v", alg.Name(), T, err)
			}
			checkResult(t, keys, res)
		}
	}
}

func TestRunEdgeSizes(t *testing.T) {
	alg := sorts.Quicksort{}
	for _, n := range []int{0, 1, 2, 3, 7} {
		keys := dataset.Uniform(n, uint64(n)+2)
		res, err := Run(keys, Config{Algorithm: alg, NewSpace: mlcSpace(0.1), Seed: 7})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkResult(t, keys, res)
	}
}

func TestRunAdversarialInputs(t *testing.T) {
	inputs := map[string][]uint32{
		"sorted":   dataset.Sorted(2000),
		"reverse":  dataset.Reverse(2000),
		"allsame":  dataset.FewDistinct(2000, 1, 3),
		"two":      dataset.FewDistinct(2000, 2, 4),
		"extremes": {0xffffffff, 0, 0xffffffff, 0, 1, 0xfffffffe},
	}
	for name, keys := range inputs {
		for _, alg := range sorts.Standard(6) {
			res, err := Run(keys, Config{Algorithm: alg, NewSpace: mlcSpace(0.1), Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name(), name, err)
			}
			checkResult(t, keys, res)
		}
	}
}

func TestRunQuickProperty(t *testing.T) {
	f := func(keys []uint32, seed uint64) bool {
		if len(keys) > 400 {
			keys = keys[:400]
		}
		res, err := Run(keys, Config{
			Algorithm:    sorts.Quicksort{},
			NewSpace:     mlcSpace(0.12), // heavy corruption
			Seed:         seed,
			SkipBaseline: true,
		})
		if err != nil {
			return false
		}
		want := sortedCopy(keys)
		for i := range want {
			if res.Keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(nil, Config{NewSpace: mlcSpace(0.05)}); err == nil || !strings.Contains(err.Error(), "Config.Algorithm") {
		t.Errorf("missing algorithm: err = %v, want one naming Config.Algorithm", err)
	}
	if _, err := Run(nil, Config{Algorithm: sorts.Quicksort{}}); err == nil || !strings.Contains(err.Error(), "Config.NewSpace") {
		t.Errorf("missing space: err = %v, want one naming Config.NewSpace", err)
	}
	if _, err := Run([]uint32{3, 1, 2}, Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.05)}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestReportAccounting(t *testing.T) {
	keys := dataset.Uniform(4000, 9)
	res, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: 11, MeasureSortedness: true})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report

	// Preparation stage: exactly n approximate writes and n precise reads.
	if r.Prep.Approx.Writes != 4000 {
		t.Errorf("prep approx writes = %d, want 4000", r.Prep.Approx.Writes)
	}
	if r.Prep.Precise.Reads != 4000 {
		t.Errorf("prep precise reads = %d, want 4000", r.Prep.Precise.Reads)
	}
	if r.Prep.Precise.Writes != 0 {
		t.Errorf("prep precise writes = %d, want 0", r.Prep.Precise.Writes)
	}

	// Approx stage writes keys approximately and IDs precisely.
	if r.ApproxSort.Approx.Writes == 0 || r.ApproxSort.Precise.Writes == 0 {
		t.Error("approx stage missing writes on one side")
	}

	// Refine step 1 writes exactly Rem~ words.
	if got := r.RefineFind.Precise.Writes; got != r.RemTilde {
		t.Errorf("refine find writes = %d, want Rem~ = %d", got, r.RemTilde)
	}
	if r.RefineFind.Approx.Writes != 0 {
		t.Error("refine stage wrote to approximate memory")
	}

	// Refine merge: 2n output writes + Rem~ set flags.
	if got, want := r.RefineMerge.Precise.Writes, 2*4000+r.RemTilde; got != want {
		t.Errorf("refine merge writes = %d, want %d", got, want)
	}

	// The refine stage in total stays below 3n + α(Rem~) ≈ 3n for small
	// Rem~ — the "fewer than 3n" claim of Section 4.2.
	refineWrites := r.RefineFind.Precise.Writes + r.RefineSort.Precise.Writes + r.RefineMerge.Precise.Writes
	if r.RemTilde < 400 && refineWrites >= 3*4000+r.RemTilde*40 {
		t.Errorf("refine writes = %d, not write-limited", refineWrites)
	}

	// Sortedness measurement populated.
	if r.PostApproxRem < 0 || r.PostApproxErrorRate < 0 {
		t.Error("MeasureSortedness did not populate metrics")
	}
	if r.PostApproxRem < r.RemTilde/50 {
		t.Errorf("exact Rem %d implausibly small versus Rem~ %d", r.PostApproxRem, r.RemTilde)
	}

	// Baseline populated and plausible: 2·α(n) writes.
	if r.Baseline.Writes == 0 {
		t.Error("baseline missing")
	}
	alpha := AlphaQuicksort(4000)
	if got := float64(r.Baseline.Writes); got < alpha || got > 4*alpha {
		t.Errorf("baseline writes = %v, want around 2·α = %v", got, 2*alpha)
	}
}

func TestReportString(t *testing.T) {
	keys := dataset.Uniform(1000, 51)
	res, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	for _, want := range []string{"Quicksort", "n=1000", "sorted=true", "WR="} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String() = %q missing %q", s, want)
		}
	}
}

func TestHeuristicLISIsNonDecreasing(t *testing.T) {
	// Property: for an arbitrary permutation order of arbitrary keys, the
	// elements findREM keeps form a non-decreasing key sequence.
	f := func(keys []uint32, seed uint64) bool {
		n := len(keys)
		if n == 0 {
			return true
		}
		precise := mem.NewPreciseSpace()
		key0 := precise.Alloc(n)
		mem.Load(key0, keys)
		id := precise.Alloc(n)
		perm := dataset.Uniform(n, seed) // derive a permutation by sorting random ranks
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return perm[order[a]] < perm[order[b]] })
		for i, o := range order {
			id.Set(i, uint32(o))
		}
		remID := precise.Alloc(n)
		remCount := findREM(key0, id, remID)
		inREM := make(map[uint32]bool, remCount)
		for i := 0; i < remCount; i++ {
			inREM[remID.Get(i)] = true
		}
		last := uint32(0)
		first := true
		for i := 0; i < n; i++ {
			rid := id.Get(i)
			if inREM[rid] {
				continue
			}
			k := keys[rid]
			if !first && k < last {
				return false
			}
			last, first = k, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFindREMOnSortedOrderIsEmpty(t *testing.T) {
	precise := mem.NewPreciseSpace()
	keys := dataset.Sorted(100)
	key0 := precise.Alloc(100)
	mem.Load(key0, keys)
	id := precise.Alloc(100)
	mem.Load(id, dataset.IDs(100))
	remID := precise.Alloc(100)
	if got := findREM(key0, id, remID); got != 0 {
		t.Errorf("findREM on sorted order = %d, want 0", got)
	}
}

func TestFindREMPaperExample(t *testing.T) {
	// The running example of Figure 8: Key0 = {168,528,1,96,33,35,928,6},
	// post-approx ID order = {3,8,6,5,4,7,1,2} (1-based) and the refine
	// scan flags IDs 6 and 7 (keys 35 and 928) as REM.
	keys := []uint32{168, 528, 1, 96, 33, 35, 928, 6}
	order := []uint32{2, 7, 5, 4, 3, 6, 0, 1} // 0-based version of the paper's IDs
	precise := mem.NewPreciseSpace()
	key0 := precise.Alloc(len(keys))
	mem.Load(key0, keys)
	id := precise.Alloc(len(order))
	mem.Load(id, order)
	remID := precise.Alloc(len(order))
	remCount := findREM(key0, id, remID)
	if remCount != 2 {
		t.Fatalf("Rem~ = %d, want 2 (paper Figure 8)", remCount)
	}
	got := []uint32{remID.Get(0), remID.Get(1)}
	if got[0] != 5 || got[1] != 6 {
		t.Errorf("REMID = %v, want [5 6] (keys 35 and 928)", got)
	}
}

func TestRemTildeSmallAtModestT(t *testing.T) {
	keys := dataset.Uniform(20000, 13)
	res, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: 17, SkipBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Report.RemTildeRatio(); ratio > 0.15 {
		t.Errorf("Rem~ ratio at T=0.055 = %v, want small (near-sorted input to refine)", ratio)
	}
}

func TestWriteReductionSigns(t *testing.T) {
	// Qualitative Figure 9 shape at small n: at T=0.025 (p≈1) write
	// reduction must be negative; mergesort must not beat the baseline
	// anywhere.
	keys := dataset.Uniform(30000, 19)
	low, err := Run(keys, Config{Algorithm: sorts.MSD{Bits: 3}, NewSpace: mlcSpace(0.025), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if wr := low.Report.WriteReduction(); wr >= 0 {
		t.Errorf("write reduction at precise T = %v, want negative", wr)
	}
	ms, err := Run(keys, Config{Algorithm: sorts.Mergesort{}, NewSpace: mlcSpace(0.055), Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if wr := ms.Report.WriteReduction(); wr > 0.02 {
		t.Errorf("mergesort write reduction = %v, paper finds no benefit", wr)
	}
}

func TestStageBreakdownArithmetic(t *testing.T) {
	keys := dataset.Uniform(2000, 31)
	res, err := Run(keys, Config{Algorithm: sorts.LSD{Bits: 6}, NewSpace: mlcSpace(0.055), Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	total := r.Total()
	sum := r.Prep.WriteNanos() + r.ApproxSort.WriteNanos() +
		r.RefineFind.WriteNanos() + r.RefineSort.WriteNanos() + r.RefineMerge.WriteNanos()
	if math.Abs(total.WriteNanos()-sum) > 1e-6 {
		t.Errorf("Total().WriteNanos %v != stage sum %v", total.WriteNanos(), sum)
	}
	if got := r.ApproxPhase().WriteNanos() + r.RefinePhase().WriteNanos(); math.Abs(got-sum) > 1e-6 {
		t.Errorf("phase split %v != stage sum %v", got, sum)
	}
	if total.Writes() <= 0 || total.AccessNanos() <= total.WriteNanos() {
		t.Error("breakdown totals inconsistent")
	}
}

func TestCostModelMatchesHandComputation(t *testing.T) {
	m := CostModel{P: 0.5, Alpha: func(n int) float64 { return float64(10 * n) }}
	// n=100, rem=10: hybrid = 1.5*1000 + 20 + 2.5*100 + 100 = 1870;
	// baseline = 2000; WR = 1 - 1870/2000 = 0.065.
	if got := m.HybridWrites(100, 10); math.Abs(got-1870) > 1e-9 {
		t.Errorf("HybridWrites = %v, want 1870", got)
	}
	if got := m.BaselineWrites(100); got != 2000 {
		t.Errorf("BaselineWrites = %v, want 2000", got)
	}
	wr := m.WriteReduction(100, 10)
	if math.Abs(wr-0.065) > 1e-9 {
		t.Errorf("WriteReduction = %v, want 0.065", wr)
	}
	if !m.UseHybrid(100, 10) {
		t.Error("UseHybrid should be true at positive WR")
	}
	if m.UseHybrid(100, 100) {
		t.Error("UseHybrid should be false when rem = n")
	}
}

func TestCostModelConsistency(t *testing.T) {
	// Equation 4 must equal 1 − hybrid/baseline for any inputs.
	f := func(nRaw, remRaw uint16, pRaw uint8) bool {
		n := int(nRaw)%10000 + 2
		rem := int(remRaw) % n
		p := float64(pRaw%100) / 100
		m := CostModel{P: p, Alpha: AlphaMergesort}
		direct := 1 - m.HybridWrites(n, rem)/m.BaselineWrites(n)
		return math.Abs(direct-m.WriteReduction(n, rem)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphaFunctions(t *testing.T) {
	if AlphaQuicksort(1) != 0 || AlphaMergesort(0) != 0 {
		t.Error("α of trivial inputs should be 0")
	}
	if got := AlphaQuicksort(1024); math.Abs(got-1024*10/2) > 1e-9 {
		t.Errorf("AlphaQuicksort(1024) = %v, want 5120", got)
	}
	if got := AlphaMergesort(1024); math.Abs(got-10240) > 1e-9 {
		t.Errorf("AlphaMergesort(1024) = %v, want 10240", got)
	}
	if got := AlphaRadix(6)(100); got != 1200 {
		t.Errorf("AlphaRadix(6)(100) = %v, want 1200 (6 passes × 2n)", got)
	}
	if got := AlphaRadix(3)(100); got != 2200 {
		t.Errorf("AlphaRadix(3)(100) = %v, want 2200 (11 passes × 2n)", got)
	}
}

func TestAlphaFor(t *testing.T) {
	for _, alg := range sorts.Standard(3, 4, 5, 6) {
		a, err := AlphaFor(alg)
		if err != nil {
			t.Errorf("AlphaFor(%s): %v", alg.Name(), err)
			continue
		}
		if a(1000) <= 0 {
			t.Errorf("AlphaFor(%s)(1000) non-positive", alg.Name())
		}
	}
	if _, err := AlphaFor(fakeAlg{}); err == nil {
		t.Error("AlphaFor(unknown) should error")
	}
}

type fakeAlg struct{}

func (fakeAlg) Name() string               { return "fake" }
func (fakeAlg) Sort(sorts.Pair, sorts.Env) {}
func (fakeAlg) SortIDs(ids mem.Words, count int, key func(uint32) uint32, env sorts.Env) {
}

func TestAnalyticWRTracksMeasuredSign(t *testing.T) {
	// The model and the measurement must agree on the sign of the write
	// reduction at the paper's sweet spot and at the precise end.
	keys := dataset.Uniform(50000, 41)
	for _, tc := range []struct {
		T    float64
		p    float64
		alg  sorts.Algorithm
		want bool // hybrid should win
	}{
		{0.055, 0.67, sorts.MSD{Bits: 3}, true},
		{0.025, 1.00, sorts.MSD{Bits: 3}, false},
	} {
		res, err := Run(keys, Config{Algorithm: tc.alg, NewSpace: mlcSpace(tc.T), Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		alpha, _ := AlphaFor(tc.alg)
		m := CostModel{P: tc.p, Alpha: alpha}
		model := m.WriteReduction(len(keys), res.Report.RemTilde)
		measured := res.Report.WriteReduction()
		if (model > 0) != tc.want || (measured > 0) != tc.want {
			t.Errorf("%s T=%v: model WR=%v measured WR=%v, want positive=%v",
				tc.alg.Name(), tc.T, model, measured, tc.want)
		}
		if math.Abs(model-measured) > 0.15 {
			t.Errorf("%s T=%v: model %v and measurement %v diverge", tc.alg.Name(), tc.T, model, measured)
		}
	}
}
