package core

import (
	"math"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
)

// only is the one-element roster of a fixed algorithm.
func only(alg sorts.Algorithm) []sorts.Candidate { return []sorts.Candidate{{Alg: alg}} }

func TestPlannerPicksHybridAtSweetSpot(t *testing.T) {
	keys := dataset.Uniform(500000, 1)
	plan, err := Planner{Config: Config{T: 0.055, Seed: 2}}.Plan(keys, InMemory{}, only(sorts.MSD{Bits: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UseHybrid {
		t.Errorf("planner rejected hybrid at the sweet spot: %+v", plan)
	}
	if plan.P < 0.55 || plan.P > 0.8 {
		t.Errorf("pilot p(t) = %v, want ~0.67", plan.P)
	}
	if plan.PilotSize != 4096 {
		t.Errorf("pilot size = %d", plan.PilotSize)
	}
}

func TestPlannerRejectsPreciseT(t *testing.T) {
	keys := dataset.Uniform(500000, 3)
	plan, err := Planner{Config: Config{T: 0.025, Seed: 4}}.Plan(keys, InMemory{}, only(sorts.MSD{Bits: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseHybrid {
		t.Errorf("planner chose hybrid with p(t)≈1: %+v", plan)
	}
}

func TestPlannerRejectsMergesort(t *testing.T) {
	// Mergesort's pilot remainder is large enough that Eq. 4 goes
	// negative — matching Figure 9's finding.
	keys := dataset.Uniform(200000, 5)
	plan, err := Planner{Config: Config{T: 0.055, Seed: 6}}.Plan(keys, InMemory{}, only(sorts.Mergesort{}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseHybrid {
		t.Errorf("planner chose hybrid for mergesort: %+v", plan)
	}
}

func TestPlannerTinyInput(t *testing.T) {
	plan, err := Planner{Config: Config{T: 0.055}}.Plan([]uint32{5}, InMemory{}, only(sorts.Quicksort{}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseHybrid {
		t.Error("planner chose hybrid for a single-element input")
	}
}

func TestPlannerValidatesConfig(t *testing.T) {
	if _, err := (Planner{Config: Config{T: 0.055}}).Plan(dataset.Uniform(10, 1), InMemory{}, only(nil)); err == nil {
		t.Error("missing algorithm accepted")
	}
	if _, err := (Planner{Config: Config{T: 0.055}}).Plan(dataset.Uniform(10000, 1), InMemory{}, only(fakeAlg{})); err == nil {
		t.Error("algorithm without analytic α accepted")
	}
}

func TestPlannerPredictionTracksMeasurement(t *testing.T) {
	keys := dataset.Uniform(120000, 7)
	cfg := Config{Algorithm: sorts.LSD{Bits: 3}, T: 0.055, Seed: 8}
	plan, err := Planner{Config: cfg, PilotSize: 8192}.Plan(keys, InMemory{}, only(cfg.Algorithm))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	measured := res.Report.WriteReduction()
	if (plan.PredictedWR > 0) != (measured > 0) {
		t.Errorf("plan WR=%v disagrees in sign with measured %v", plan.PredictedWR, measured)
	}
	if d := plan.PredictedWR - measured; d > 0.1 || d < -0.1 {
		t.Errorf("plan WR=%v far from measured %v", plan.PredictedWR, measured)
	}
}

func TestExactLISRefine(t *testing.T) {
	keys := dataset.Uniform(20000, 9)
	exact, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, T: 0.07, Seed: 10, ExactLIS: true})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, T: 0.07, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, keys, exact)
	// Identical seeds give an identical post-approx order, so exact LIS
	// must find a remainder no larger than the heuristic's.
	if exact.Report.RemTilde > heur.Report.RemTilde {
		t.Errorf("exact Rem %d > heuristic Rem~ %d", exact.Report.RemTilde, heur.Report.RemTilde)
	}
	// And it pays for the privilege in refine-stage writes.
	exactFind := exact.Report.RefineFind.Precise.Writes
	heurFind := heur.Report.RefineFind.Precise.Writes
	if exactFind <= heurFind {
		t.Errorf("exact LIS find writes %d not above heuristic %d", exactFind, heurFind)
	}
	if exactFind < exact.Report.N {
		t.Errorf("exact LIS should pay Θ(n) bookkeeping writes, got %d", exactFind)
	}
}

func TestExactLISOnCleanInput(t *testing.T) {
	// On an already sorted order the exact LIS covers everything.
	keys := dataset.Sorted(5000)
	res, err := Run(keys, Config{Algorithm: sorts.Quicksort{}, T: 0.025, Seed: 11, ExactLIS: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, keys, res)
	if res.Report.RemTilde != 0 {
		t.Errorf("exact LIS remainder on clean input = %d", res.Report.RemTilde)
	}
}

func TestExactLISQuickEquivalence(t *testing.T) {
	// Property: both refine variants produce the identical sorted output.
	for seed := uint64(0); seed < 8; seed++ {
		keys := dataset.Uniform(3000, seed+20)
		a, err := Run(keys, Config{Algorithm: sorts.MSD{Bits: 6}, T: 0.1, Seed: seed, ExactLIS: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(keys, Config{Algorithm: sorts.MSD{Bits: 6}, T: 0.1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Keys {
			if a.Keys[i] != b.Keys[i] {
				t.Fatalf("seed %d: outputs differ at %d", seed, i)
			}
		}
	}
}

// TestPlannerServiceInputs is the service-hardening table: every input a
// client can post — tiny, sub-pilot-sized, constant-key, clustered — must
// come back as a valid, JSON-encodable Plan (finite floats, remainder
// within [0, n], pilot no larger than the input), never an error or a
// skewed extrapolation.
func TestPlannerServiceInputs(t *testing.T) {
	constant := func(n int) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = 42
		}
		return keys
	}
	algs := []sorts.Algorithm{
		sorts.Quicksort{}, sorts.Mergesort{}, sorts.LSD{Bits: 6}, sorts.MSD{Bits: 6},
	}
	cases := []struct {
		name string
		keys []uint32
	}{
		{"empty", nil},
		{"single", []uint32{7}},
		{"pair", []uint32{9, 3}},
		{"three", []uint32{2, 2, 1}},
		{"tiny-constant", constant(5)},
		{"sub-pilot-uniform", dataset.Uniform(1000, 21)},
		{"sub-pilot-constant", constant(1000)},
		{"just-under-2x-pilot", dataset.Uniform(8000, 22)}, // old stride bug: prefix-only sample
		{"constant-large", constant(50000)},
		{"sorted-large", dataset.Sorted(50000)},
		{"fewdistinct", dataset.FewDistinct(30000, 2, 23)},
	}
	for _, alg := range algs {
		for _, tc := range cases {
			t.Run(alg.Name()+"/"+tc.name, func(t *testing.T) {
				n := len(tc.keys)
				plan, err := Planner{Config: Config{T: 0.055, Seed: 3}}.Plan(tc.keys, InMemory{}, only(alg))
				if err != nil {
					t.Fatalf("planner failed on service input: %v", err)
				}
				for name, f := range map[string]float64{
					"PredictedWR":   plan.PredictedWR,
					"P":             plan.P,
					"PilotRemRatio": plan.PilotRemRatio,
				} {
					if math.IsNaN(f) || math.IsInf(f, 0) {
						t.Errorf("%s = %v not finite", name, f)
					}
				}
				if plan.PredictedRem < 0 || plan.PredictedRem > n {
					t.Errorf("PredictedRem = %d out of [0, %d]", plan.PredictedRem, n)
				}
				if plan.PilotSize > n {
					t.Errorf("PilotSize = %d exceeds n = %d", plan.PilotSize, n)
				}
				if plan.P < 0 || plan.P > 1.5 {
					t.Errorf("P = %v implausible", plan.P)
				}
			})
		}
	}
}

// TestPilotSampleSpansInput pins the even-spread sampling fix: for any
// n >= m the sample's indices must cover the whole input, in particular
// reaching the final n/m window. The old ⌊n/m⌋ stride degenerated to a
// prefix sample (stride 1, first m keys only) whenever n < 2m — exactly
// the sub-2×-pilot sizes a service sees all the time.
func TestPilotSampleSpansInput(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{4096, 4096}, // pilot == input
		{4097, 4096}, // barely larger
		{6000, 4096}, // old bug zone: stride would be 1
		{8191, 4096}, // largest pre-fix prefix-degenerate size
		{8192, 4096}, // exact 2×
		{100000, 4096},
		{5, 2},
		{7, 3},
	} {
		keys := make([]uint32, tc.n)
		for i := range keys {
			keys[i] = uint32(i) // key == index, so values reveal indices
		}
		pilot := pilotSample(keys, tc.m)
		if len(pilot) != tc.m {
			t.Fatalf("n=%d m=%d: sample length %d", tc.n, tc.m, len(pilot))
		}
		// The last sampled index must land in the final n/m window…
		last := int(pilot[tc.m-1])
		if last < tc.n-tc.n/tc.m-1 {
			t.Errorf("n=%d m=%d: last sampled index %d leaves a %d-key tail unseen",
				tc.n, tc.m, last, tc.n-1-last)
		}
		// …indices must be strictly increasing (order-preserving sample,
		// no repeats) and start at 0.
		if pilot[0] != 0 {
			t.Errorf("n=%d m=%d: sample does not start at index 0", tc.n, tc.m)
		}
		for i := 1; i < tc.m; i++ {
			if pilot[i] <= pilot[i-1] {
				t.Errorf("n=%d m=%d: sample indices not strictly increasing at %d", tc.n, tc.m, i)
				break
			}
		}
	}
}
