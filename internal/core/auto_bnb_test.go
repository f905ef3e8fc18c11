package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// planAutoExhaustive is the reference for PlanAuto's branch and bound: it
// pilots every candidate in roster order and keeps the first strict
// minimum of the predicted write cost. It also checks every candidate's
// cost against the bound PlanAuto prunes with.
func planAutoExhaustive(t *testing.T, pl Planner, keys []uint32, candidates []sorts.Candidate) Plan {
	t.Helper()
	n := len(keys)
	var best Plan
	bestCost := math.Inf(1)
	for _, c := range candidates {
		cpl := pl
		cpl.Config.Algorithm = c.Alg
		plan, err := cpl.Plan(keys)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := AlphaFor(c.Alg)
		if err != nil {
			t.Fatal(err)
		}
		model := CostModel{P: plan.P, Alpha: alpha}
		cost := model.BaselineWrites(n)
		if plan.UseHybrid {
			cost = model.HybridWrites(n, plan.PredictedRem)
		}
		if bound := autoCostBound(alpha, n); !(cost >= bound) {
			t.Fatalf("n=%d %s: cost %v below its bound %v (p=%v, hybrid=%v, rem=%d)",
				n, c.Name, cost, bound, plan.P, plan.UseHybrid, plan.PredictedRem)
		}
		if cost < bestCost {
			bestCost = cost
			plan.Algorithm = c.Name
			best = plan
		}
	}
	return best
}

// TestPlanAutoMatchesExhaustive pins that pruning never changes a plan:
// over backends, sizes either side of the pilot size, input shapes and
// seeds, PlanAuto's plan is deep-equal to the exhaustive loop's, and no
// candidate's cost falls below its bound. n = 2^16 adds exact cost ties
// (quicksort and the 8-bit OneSweep both write 8 words per key there), so
// the roster-order tie-break is pinned too. The grid must prune some
// pilots, so the branch and bound is exercised.
func TestPlanAutoMatchesExhaustive(t *testing.T) {
	points := []memmodel.Point{
		memmodel.MLC(0.02),
		memmodel.MLC(0.055),
		memmodel.MLC(0.1),
		memmodel.MustGet(memmodel.SpintronicName).DefaultPoint(),
		memmodel.MustGet(memmodel.MemristiveName).DefaultPoint(),
	}
	cands := sorts.AutoCandidates()
	prunedPilots, exhaustivePilots := 0, 0
	for _, pt := range points {
		b := memmodel.MustGet(pt.Backend)
		npt, err := b.Normalize(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 100, 4096, 9000, 50000, 1 << 16} {
			for _, seed := range []uint64{1, 2, 3} {
				inputs := map[string][]uint32{
					"uniform":     dataset.Uniform(n, seed),
					"sorted":      dataset.Sorted(n),
					"fewdistinct": dataset.FewDistinct(n, 16, seed),
				}
				for _, dist := range []string{"uniform", "sorted", "fewdistinct"} {
					name := fmt.Sprintf("%v/n=%d/%s/seed=%d", pt, n, dist, seed)
					spaces := 0
					pl := Planner{Config: Config{
						NewSpace: func(s uint64) Space { spaces++; return b.NewApprox(npt, s) },
						Seed:     1729 + seed,
					}}
					got, err := pl.PlanAuto(inputs[dist], cands)
					if err != nil {
						t.Fatalf("%s: PlanAuto: %v", name, err)
					}
					prunedPilots += spaces
					spaces = 0
					want := planAutoExhaustive(t, pl, inputs[dist], cands)
					exhaustivePilots += spaces
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pruned plan\n %+v\nexhaustive plan\n %+v", name, got, want)
					}
				}
			}
		}
	}
	if prunedPilots >= exhaustivePilots {
		t.Errorf("branch and bound ran %d approximate spaces, exhaustive %d; nothing was pruned",
			prunedPilots, exhaustivePilots)
	}
	t.Logf("approximate spaces built: pruned %d, exhaustive %d", prunedPilots, exhaustivePilots)
}
