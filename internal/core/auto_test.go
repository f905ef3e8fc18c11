package core

import (
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// planAutoAt runs registry-driven selection against a registered backend
// point with a pinned pilot seed.
func planAutoAt(t *testing.T, pt memmodel.Point, keys []uint32) Plan {
	t.Helper()
	b := memmodel.MustGet(pt.Backend)
	npt, err := b.Normalize(pt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Planner{Config: Config{
		NewSpace: func(s uint64) Space { return b.NewApprox(npt, s) },
		Seed:     1729,
	}}.PlanAuto(keys, sorts.AutoCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanAutoDivergesAcrossBackends pins the ISSUE's acceptance point:
// backend-aware selection must pick different algorithms on pcm-mlc vs
// memristive for at least one (n, distribution). At n=65536 on a
// few-distinct input, an approximate quicksort leaves almost no
// remainder (only same-key runs to re-join), so pcm-mlc's Equation 4
// pilot at T=0.08 finds hybrid quicksort cheapest; memristive writes at
// a fixed precise-equivalent latency (measured p = 1), hybrid can never
// pay there, and the precise-baseline contest goes to the 8-bit
// OneSweep (8 writes/element vs log2(65536)/2 = 8 for quicksort — a
// tie, broken to the earlier registry name).
func TestPlanAutoDivergesAcrossBackends(t *testing.T) {
	for _, n := range []int{1 << 16, 80000} {
		keys := dataset.FewDistinct(n, 16, 77)

		mlc := planAutoAt(t, memmodel.MLC(0.08), keys)
		if mlc.Algorithm != "quicksort" || !mlc.UseHybrid {
			t.Errorf("pcm-mlc T=0.08 n=%d picked %q (hybrid=%v), want hybrid quicksort",
				n, mlc.Algorithm, mlc.UseHybrid)
		}

		mr := planAutoAt(t, memmodel.MustGet(memmodel.MemristiveName).DefaultPoint(), keys)
		if mr.Algorithm != "onesweep-lsd" || mr.UseHybrid {
			t.Errorf("memristive n=%d picked %q (hybrid=%v), want precise onesweep-lsd",
				n, mr.Algorithm, mr.UseHybrid)
		}
		// Fixed write latency means the pilot must measure p = 1 exactly.
		if mr.P != 1 {
			t.Errorf("memristive pilot p = %v, want exactly 1", mr.P)
		}
	}
}

// TestPlanAutoSizeCrossover pins the n-driven regime change on one
// backend: uniform keys route to quicksort below the α crossover
// (log2(n)/2 < 8 writes/element) and to the OneSweep radix above it.
func TestPlanAutoSizeCrossover(t *testing.T) {
	pt := memmodel.MLC(0.055)
	small := planAutoAt(t, pt, dataset.Uniform(1<<14, 77))
	if small.Algorithm != "quicksort" {
		t.Errorf("n=2^14 picked %q, want quicksort", small.Algorithm)
	}
	large := planAutoAt(t, pt, dataset.Uniform(1<<17, 77))
	if large.Algorithm != "onesweep-lsd" {
		t.Errorf("n=2^17 picked %q, want onesweep-lsd", large.Algorithm)
	}
}

// TestPlanAutoDeterministic pins that selection is a pure function of
// (keys, backend, seed): identical calls yield identical plans.
func TestPlanAutoDeterministic(t *testing.T) {
	keys := dataset.Uniform(30000, 5)
	a := planAutoAt(t, memmodel.MLC(0.105), keys)
	b := planAutoAt(t, memmodel.MLC(0.105), keys)
	if a != b {
		t.Errorf("plans diverged:\n %+v\n %+v", a, b)
	}
}

// TestPlanAutoRequiresCandidates pins the empty-roster error.
func TestPlanAutoRequiresCandidates(t *testing.T) {
	_, err := Planner{Config: Config{NewSpace: mlcSpace(0.055), Seed: 1}}.PlanAuto(dataset.Uniform(100, 1), nil)
	if err == nil {
		t.Fatal("PlanAuto accepted an empty candidate roster")
	}
}
