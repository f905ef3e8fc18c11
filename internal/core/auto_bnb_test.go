package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/sorts"
)

// planExhaustive is the reference for Plan's candidate contest: it plans
// every candidate alone, in roster order, and keeps the first strict
// minimum of the geometry's cost — min(hybrid, baseline) writes in
// memory, External.TotalWrites out of core, Sharded.CriticalPath across
// shards. For the in-memory geometry it also checks every candidate's cost
// against the bound Plan prunes with, at the memory model's write floor.
func planExhaustive(t *testing.T, pl Planner, keys []uint32, geo Geometry, floor float64, candidates []sorts.Candidate) Plan {
	t.Helper()
	n := len(keys)
	var best Plan
	bestCost := math.Inf(1)
	for _, c := range candidates {
		plan, err := pl.Plan(keys, geo, []sorts.Candidate{c})
		if err != nil {
			t.Fatal(err)
		}
		var cost float64
		switch geo.(type) {
		case InMemory:
			alpha, err := AlphaFor(c.Alg)
			if err != nil {
				t.Fatal(err)
			}
			model := CostModel{P: plan.P, Alpha: alpha}
			cost = model.BaselineWrites(n)
			if plan.UseHybrid {
				cost = model.HybridWrites(n, plan.PredictedRem)
			}
			if bound := autoCostBound(alpha, n, floor); !(cost >= bound) {
				t.Fatalf("n=%d %s: cost %v below its bound %v (p=%v, floor=%v, hybrid=%v, rem=%d)",
					n, c.Name, cost, bound, plan.P, floor, plan.UseHybrid, plan.PredictedRem)
			}
		case ExtConfig:
			cost = plan.External.TotalWrites
		case ShardConfig:
			cost = plan.Sharded.CriticalPath
		}
		if cost < bestCost {
			bestCost = cost
			plan.Algorithm = c.Name
			best = plan
		}
	}
	return best
}

// autoPoints are the backend operating points the contest is pinned at.
var autoPoints = []memmodel.Point{
	memmodel.MLC(0.02),
	memmodel.MLC(0.055),
	memmodel.MLC(0.1),
	memmodel.MustGet(memmodel.SpintronicName).DefaultPoint(),
	memmodel.MustGet(memmodel.MemristiveName).DefaultPoint(),
}

// pointFloor is the write floor Plan reads off pt's approximate spaces.
// The space it builds for the reading is not a pilot's, so no planner
// counts it.
func pointFloor(t *testing.T, pt memmodel.Point) float64 {
	t.Helper()
	b := memmodel.MustGet(pt.Backend)
	npt, err := b.Normalize(pt)
	if err != nil {
		t.Fatal(err)
	}
	return writeFloor(b.NewApprox(npt, 0))
}

// countingPlanner returns a planner on pt whose approximate spaces are
// counted in *spaces: one per pilot run.
func countingPlanner(t *testing.T, pt memmodel.Point, seed uint64, spaces *int) Planner {
	t.Helper()
	b := memmodel.MustGet(pt.Backend)
	npt, err := b.Normalize(pt)
	if err != nil {
		t.Fatal(err)
	}
	return Planner{Config: Config{
		NewSpace: func(s uint64) Space { *spaces++; return b.NewApprox(npt, s) },
		Seed:     seed,
	}}
}

// TestPlanAutoMatchesExhaustive pins that Plan's contest is the
// exhaustive one for every geometry. In memory, over backends, sizes
// either side of the pilot size, input shapes and seeds, the pruned plan
// is deep-equal to the exhaustive loop's, and no candidate's cost falls
// below its bound at the backend's write floor. n = 2^16 adds exact cost
// ties (quicksort and the 8-bit OneSweep both write 8 words per key
// there), so the roster-order tie-break is pinned too. The grid must
// prune some pilots, so the branch and bound is exercised; at sortd's
// default request size the floor prunes all but the two candidates that
// can win (pcm-mlc) or all but the cheapest baseline (the fixed-latency
// backends). Out of core and across shards, the winner is the cheapest
// whole geometry, labelled with its registry name.
func TestPlanAutoMatchesExhaustive(t *testing.T) {
	cands := sorts.AutoCandidates()
	check := func(name string, pl Planner, keys []uint32, geo Geometry, floor float64, spaces *int) (planned, exhaustive int) {
		got, err := pl.Plan(keys, geo, cands)
		if err != nil {
			t.Fatalf("%s: Plan: %v", name, err)
		}
		planned, *spaces = *spaces, 0
		want := planExhaustive(t, pl, keys, geo, floor, cands)
		exhaustive, *spaces = *spaces, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: plan\n %+v\nexhaustive plan\n %+v", name, got, want)
		}
		return planned, exhaustive
	}

	// Approximate spaces Plan builds at n = 50000 on uniform input: at
	// pcm-mlc T = 0.055 only quicksort and the 8-bit OneSweep are
	// piloted, as lsd, msd and mergesort cost more than quicksort even at
	// one pulse per cell; at the fixed-latency defaults p = 1 and the
	// cheapest baseline (quicksort) alone is piloted.
	defaultSpaces := map[string]int{
		memmodel.MLC(0.055).String():                                      2,
		memmodel.MustGet(memmodel.SpintronicName).DefaultPoint().String(): 1,
		memmodel.MustGet(memmodel.MemristiveName).DefaultPoint().String(): 1,
	}
	prunedPilots, exhaustivePilots := 0, 0
	for _, pt := range autoPoints {
		floor := pointFloor(t, pt)
		for _, n := range []int{1, 2, 3, 100, 4096, 9000, 50000, 1 << 16} {
			for _, seed := range []uint64{1, 2, 3} {
				inputs := map[string][]uint32{
					"uniform":     dataset.Uniform(n, seed),
					"sorted":      dataset.Sorted(n),
					"fewdistinct": dataset.FewDistinct(n, 16, seed),
				}
				for _, dist := range []string{"uniform", "sorted", "fewdistinct"} {
					spaces := 0
					pl := countingPlanner(t, pt, 1729+seed, &spaces)
					name := fmt.Sprintf("%v/n=%d/%s/seed=%d", pt, n, dist, seed)
					p, e := check(name, pl, inputs[dist], InMemory{}, floor, &spaces)
					prunedPilots += p
					exhaustivePilots += e
					if want, ok := defaultSpaces[pt.String()]; ok && n == 50000 && dist == "uniform" && p != want {
						t.Errorf("%s: Plan built %d approximate spaces, want %d", name, p, want)
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

	ext := ExtConfig{N: 20_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true}
	geometries := map[string]Geometry{
		"external": ext,
		"sharded":  ShardConfig{Ext: ExtConfig{N: 100_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true}, MaxShards: 4},
		"tiny":     ShardConfig{Ext: ExtConfig{N: 3000, MemBudget: 1 << 10, Block: 64}, MaxShards: 3},
	}
	for _, pt := range autoPoints {
		for _, sample := range [][]uint32{dataset.Uniform(8192, 13), dataset.FewDistinct(3000, 16, 5)} {
			for _, g := range []string{"external", "sharded", "tiny"} {
				spaces := 0
				pl := countingPlanner(t, pt, 99, &spaces)
				name := fmt.Sprintf("%v/%s/n=%d", pt, g, len(sample))
				check(name, pl, sample, geometries[g], 0, &spaces)
			}
		}
	}
}

// TestPlanExternalAutoPicksCheapestGeometry pins Plan's out-of-core
// contest against a hand-rolled argmin over the same candidates: the
// winner is the lowest predicted TotalWrites (whole geometries, not just
// α), labelled with its registry name.
func TestPlanExternalAutoPicksCheapestGeometry(t *testing.T) {
	sample := dataset.Uniform(8192, 13)
	ext := ExtConfig{N: 20_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true}
	pl := Planner{Config: Config{NewSpace: mlcSpace(0.055), Seed: 99}}
	cands := sorts.AutoCandidates()

	plan, err := pl.Plan(sample, ext, cands)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm == "" || plan.External == nil {
		t.Fatalf("auto plan incomplete: %+v", plan)
	}
	wantName, wantCost := "", 0.0
	for _, c := range cands {
		p, err := pl.Plan(sample, ext, []sorts.Candidate{c})
		if err != nil {
			t.Fatal(err)
		}
		if wantName == "" || p.External.TotalWrites < wantCost {
			wantName, wantCost = c.Name, p.External.TotalWrites
		}
	}
	if plan.Algorithm != wantName || plan.External.TotalWrites != wantCost {
		t.Errorf("auto picked %q at %g, want %q at %g",
			plan.Algorithm, plan.External.TotalWrites, wantName, wantCost)
	}
}

// TestPlanShardedAutoPicksShortestCriticalPath is the sharded analogue:
// lowest predicted critical path wins and carries its registry name.
func TestPlanShardedAutoPicksShortestCriticalPath(t *testing.T) {
	sample := dataset.Uniform(8192, 13)
	cfg := ShardConfig{
		Ext:       ExtConfig{N: 100_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true},
		MaxShards: 4,
	}
	pl := Planner{Config: Config{NewSpace: mlcSpace(0.055), Seed: 99}}
	cands := sorts.AutoCandidates()

	plan, err := pl.Plan(sample, cfg, cands)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm == "" || plan.Sharded == nil {
		t.Fatalf("auto plan incomplete: %+v", plan)
	}
	checkShardedCosts(t, plan.Sharded, cfg.Ext.N)
	for _, c := range cands {
		p, err := pl.Plan(sample, cfg, []sorts.Candidate{c})
		if err != nil {
			t.Fatal(err)
		}
		if p.Sharded.CriticalPath < plan.Sharded.CriticalPath {
			t.Errorf("candidate %q has shorter critical path %g than winner %q's %g",
				c.Name, p.Sharded.CriticalPath, plan.Algorithm, plan.Sharded.CriticalPath)
		}
	}
}

// TestWriteFloorPerBackend pins the floor every registered backend's
// approximate space reports: one pulse per cell for pcm-mlc, the fixed
// precise latency for the others, each nudged down by the relative 1e-9
// that covers the measured p's rounding. A space without a floor prunes
// at p = 0.
func TestWriteFloorPerBackend(t *testing.T) {
	want := map[string]float64{
		memmodel.PCMMLC:         1 / mlc.ReferenceAvgP,
		memmodel.SpintronicName: 1,
		memmodel.MemristiveName: 1,
	}
	for _, name := range memmodel.Names() {
		b := memmodel.MustGet(name)
		w, ok := want[name]
		if !ok {
			t.Fatalf("backend %q has no expected write floor", name)
		}
		got := writeFloor(b.NewApprox(b.DefaultPoint(), 1))
		if !(got < w && got > w*(1-2e-9)) {
			t.Errorf("%s: write floor %v, want just below %v", name, got, w)
		}
	}
	if got := writeFloor(mem.NewPreciseSpace()); got != 0 {
		t.Errorf("space without MinWriteNanos: floor %v, want 0", got)
	}
}

// BenchmarkPlanAuto times sortd's default auto plan: the pcm-mlc
// T = 0.055 pilot contest over the auto roster for 50k uniform keys. It
// reports the approximate spaces built per plan, one per pilot run.
func BenchmarkPlanAuto(b *testing.B) {
	keys := dataset.Uniform(50000, 1)
	spaces := 0
	pl := Planner{Config: Config{
		NewSpace: func(s uint64) Space { spaces++; return mem.NewApproxSpaceAt(0.055, s) },
		Seed:     7,
	}}
	cands := sorts.AutoCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanAuto(keys, cands); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spaces)/float64(b.N), "spaces/plan")
}

// TestPlanPilotsEachCandidateOnce pins that the out-of-core geometries
// price every fan-out and run size from one pilot per candidate: one
// approximate space per candidate, whatever MaxShards is.
func TestPlanPilotsEachCandidateOnce(t *testing.T) {
	cands := sorts.AutoCandidates()
	sample := dataset.Uniform(8192, 13)
	ext := ExtConfig{N: 100_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true}
	for _, geo := range []Geometry{ext, ShardConfig{Ext: ext, MaxShards: 1}, ShardConfig{Ext: ext, MaxShards: 4}} {
		spaces := 0
		pl := countingPlanner(t, memmodel.MLC(0.055), 99, &spaces)
		plan, err := pl.Plan(sample, geo, cands)
		if err != nil {
			t.Fatal(err)
		}
		if spaces != len(cands) {
			t.Errorf("%T: %d pilots for %d candidates", geo, spaces, len(cands))
		}
		if sh := plan.Sharded; sh != nil && geo.(ShardConfig).MaxShards > 1 && sh.Shards < 2 {
			t.Errorf("test point does not fan out: %+v", sh)
		}
	}
}

// TestPlanAutoVariantsRejectEmptyRoster pins the empty-roster error for
// every geometry.
func TestPlanAutoVariantsRejectEmptyRoster(t *testing.T) {
	pl := Planner{Config: Config{NewSpace: mlcSpace(0.055), Seed: 1}}
	ext := ExtConfig{N: 100, MemBudget: 1 << 16}
	for _, geo := range []Geometry{InMemory{}, ext, ShardConfig{Ext: ext, MaxShards: 2}} {
		if _, err := pl.Plan(dataset.Uniform(100, 1), geo, nil); err == nil {
			t.Errorf("%T: Plan accepted an empty roster", geo)
		}
	}
}
