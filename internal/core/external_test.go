package core

import (
	"encoding/json"
	"strings"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
)

func extPlan(t *testing.T, alg sorts.Algorithm, T float64, ext ExtConfig) Plan {
	t.Helper()
	sample := dataset.Uniform(8192, 13)
	plan, err := Planner{Config: Config{T: T, Seed: 99}}.Plan(sample, ext, only(alg))
	if err != nil {
		t.Fatal(err)
	}
	if plan.External == nil {
		t.Fatal("external plan has nil External")
	}
	return plan
}

func TestPlanExternalGeometryConsistent(t *testing.T) {
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true,
	})
	e := plan.External
	if e.RunSize < 1024 || e.RunSize > e.MemBudget {
		t.Fatalf("RunSize %d outside (1024, M=%d]", e.RunSize, e.MemBudget)
	}
	wantLen := e.RunSize * 2
	if int64(wantLen) > e.N {
		wantLen = int(e.N)
	}
	if e.RunLength != wantLen {
		t.Fatalf("replacement RunLength = %d, want 2×RunSize = %d", e.RunLength, wantLen)
	}
	if got := (e.N + int64(e.RunLength) - 1) / int64(e.RunLength); e.Runs != got {
		t.Fatalf("Runs = %d, want ceil(N/RunLength) = %d", e.Runs, got)
	}
	if e.FanIn < 2 {
		t.Fatalf("FanIn = %d", e.FanIn)
	}
	// M/B − 1 with defaults: 2^17/2^13 − 1 = 15.
	if e.FanIn != 15 {
		t.Fatalf("FanIn = %d, want M/B-1 = 15", e.FanIn)
	}
	if e.MergePasses < 1 {
		t.Fatalf("MergePasses = %d for a %d-run merge", e.MergePasses, e.Runs)
	}
	if e.TotalWrites != e.FormationWrites+e.MergeWrites {
		t.Fatalf("TotalWrites %g != Formation %g + Merge %g", e.TotalWrites, e.FormationWrites, e.MergeWrites)
	}
}

func TestPlanExternalHybridWinsAtSweetSpot(t *testing.T) {
	// At the paper's sweet spot (T≈0.055, ω≈0.5) hybrid formation must
	// beat precise-only formation, and the verdict must come with a
	// cheaper predicted total than the all-precise alternative.
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 50_000_000, MemBudget: 1 << 18, Replacement: true, AllowRefineAtMerge: true,
	})
	e := plan.External
	if !e.UseHybrid {
		t.Fatalf("expected hybrid verdict at sweet spot, got %+v", e)
	}
	if e.TotalWrites >= e.PreciseWrites {
		t.Fatalf("hybrid total %g not below precise %g", e.TotalWrites, e.PreciseWrites)
	}
}

func TestPlanExternalOmegaOneFavorsPrecise(t *testing.T) {
	// With ω forced to 1 the device clock offers no write asymmetry, so
	// hybrid formation is pure overhead and the planner must say precise.
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000_000, MemBudget: 1 << 17, Omega: 1, Replacement: true, AllowRefineAtMerge: true,
	})
	if plan.External.UseHybrid {
		t.Fatalf("expected precise verdict at ω=1, got %+v", plan.External)
	}
}

func TestPlanExternalRefineAtMergeGating(t *testing.T) {
	// The refine-at-merge variant must never be selected when the caller
	// cannot execute it.
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: false,
	})
	if plan.External.RefineAtMerge {
		t.Fatal("RefineAtMerge selected despite AllowRefineAtMerge=false")
	}
}

func TestPlanExternalRadixKeepsLargestRun(t *testing.T) {
	// Radix writes α(L)/L = const per element, so smaller runs buy no
	// cheaper formation — only more merge passes. The planner must keep
	// RunSize = M.
	plan := extPlan(t, sorts.LSD{Bits: 8}, 0.055, ExtConfig{
		N: 100_000_000, MemBudget: 1 << 16, Replacement: true,
	})
	if plan.External.RunSize != 1<<16 {
		t.Fatalf("radix RunSize = %d, want M = %d", plan.External.RunSize, 1<<16)
	}
}

func TestPlanExternalFanInCap(t *testing.T) {
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000_000, MemBudget: 1 << 17, MaxFanIn: 4, Replacement: true,
	})
	if plan.External.FanIn != 4 {
		t.Fatalf("FanIn = %d, want MaxFanIn cap 4", plan.External.FanIn)
	}
}

func TestPlanExternalSingleRun(t *testing.T) {
	// N ≤ run length: one run, no merge passes, merge cost zero.
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000, MemBudget: 1 << 17, Replacement: true,
	})
	e := plan.External
	if e.Runs != 1 || e.MergePasses != 0 || e.MergeWrites != 0 {
		t.Fatalf("single-run geometry wrong: %+v", e)
	}
}

func TestPlanExternalValidation(t *testing.T) {
	pl := Planner{Config: Config{T: 0.055, Seed: 1}}
	msd := only(sorts.MSD{Bits: 6})
	if _, err := pl.Plan(nil, ExtConfig{N: 0, MemBudget: 1 << 16}, msd); err == nil {
		t.Fatal("expected error for N=0")
	}
	if _, err := pl.Plan(nil, ExtConfig{N: 100, MemBudget: 1}, msd); err == nil {
		t.Fatal("expected error for MemBudget<2")
	}
	if _, err := pl.Plan(dataset.Uniform(100, 1), ExtConfig{N: 100, MemBudget: 1 << 16}, msd); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := pl.Plan(dataset.Uniform(100, 1), ExtConfig{N: 100, MemBudget: 1 << 16, Block: -1}, msd); err == nil {
		t.Fatal("expected error for negative Block")
	}
}

func TestPlanExternalEmptySampleStillPlans(t *testing.T) {
	// No pilot data (empty sample): the planner falls back to ω from the
	// config or 1, and must still produce a usable geometry.
	plan, err := Planner{Config: Config{T: 0.055, Seed: 1}}.
		Plan(nil, ExtConfig{N: 1_000_000, MemBudget: 1 << 16, Replacement: true}, only(sorts.MSD{Bits: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.External == nil || plan.External.Runs < 1 {
		t.Fatalf("degenerate plan: %+v", plan.External)
	}
	if plan.External.UseHybrid {
		t.Fatal("hybrid verdict without pilot evidence at ω=1 fallback")
	}
}

// TestPlanExternalExtraPassSingleRun pins the single-run case: a
// refine-at-merge plan whose data fits one run has no merge tree to ride
// in, so the LIS~/REM fold costs a whole pass — MergePasses is bumped
// 0 → 1 and the plan declares the extra pass explicitly.
func TestPlanExternalExtraPassSingleRun(t *testing.T) {
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true,
	})
	e := plan.External
	if !e.RefineAtMerge {
		t.Fatalf("refine-at-merge not selected for a single hybrid run: %+v", e)
	}
	if e.Runs != 1 || e.MergePasses != 1 {
		t.Fatalf("single parts run needs exactly one folding pass: %+v", e)
	}
	if !e.ExtraPass {
		t.Error("ExtraPass not set for the 0→1 pass bump")
	}
}

// TestPlanExternalExtraPassFragmentCollapse pins the many-runs case: once
// LIS~/REM part pairs exceed the fan-in, the fragment-collapse term is
// charged and surfaced as an extra pass.
func TestPlanExternalExtraPassFragmentCollapse(t *testing.T) {
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 50_000_000, MemBudget: 1 << 18, Replacement: true, AllowRefineAtMerge: true,
	})
	e := plan.External
	if !e.RefineAtMerge {
		t.Skipf("refine-at-merge not selected at this point: %+v", e)
	}
	if 2*e.Runs <= int64(e.FanIn) {
		t.Fatalf("test point too small to overflow the fan-in: %+v", e)
	}
	if !e.ExtraPass || e.CollapseWrites <= 0 {
		t.Errorf("fragment collapse not surfaced: ExtraPass=%v CollapseWrites=%g",
			e.ExtraPass, e.CollapseWrites)
	}
}

// TestPlanExternalExtraPassAbsent pins the negative: without
// refine-at-merge there is no deferred fold, so no extra pass, and the
// field serializes into plan JSON either way (sortd job payloads carry
// ExternalPlan verbatim).
func TestPlanExternalExtraPassAbsent(t *testing.T) {
	plan := extPlan(t, sorts.MSD{Bits: 6}, 0.055, ExtConfig{
		N: 10_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: false,
	})
	if plan.External.ExtraPass {
		t.Errorf("ExtraPass set without refine-at-merge: %+v", plan.External)
	}
	raw, err := json.Marshal(plan.External)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"ExtraPass":false`) {
		t.Errorf("plan JSON does not carry the ExtraPass verdict: %s", raw)
	}
}
