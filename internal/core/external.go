package core

import (
	"errors"
	"fmt"
	"math"
)

// This file extends the Equation 4 planner to out-of-core inputs with the
// (M, B, ω) asymmetric read/write cost model of Blelloch et al. ("Sorting
// with Asymmetric Read and Write Costs", PAPERS.md): M is the in-memory
// working set in records, B the I/O block size in records, and ω the
// approximate-vs-precise write cost ratio from the backend's
// ApproxWriteNanos device clock (memmodel.WriteCostRatio). The planner's
// verdict grows from "hybrid vs precise" to the full external geometry:
// run size, formation variant, merge fan-in and pass count — each chosen
// by predicted equivalent precise writes, not hardcoded defaults.

// ExtBlockDefault is the default I/O block size in records (32 KiB of
// uint32 keys), the granularity at which the merge stages output through
// simulated precise memory.
const ExtBlockDefault = 1 << 13

// ExtConfig parameterizes the out-of-core planner.
type ExtConfig struct {
	// N is the total number of records to sort (known from a dataset
	// spec, a Content-Length, or a caller-provided hint).
	N int64
	// MemBudget is M: the number of records the sorter may hold in
	// simulated memory at once (the extsort RunSize budget).
	MemBudget int
	// Block is B: records per I/O block (default ExtBlockDefault).
	Block int
	// MaxFanIn, when positive, caps the merge fan-in below M/B − 1
	// (e.g. an OS file-descriptor budget).
	MaxFanIn int
	// Omega is ω, the approximate write cost in precise-write units.
	// Non-positive means "use the pilot's measured p" — correct for
	// pcm-mlc where the device clock and the measured mean agree, and a
	// deliberate override point for backends where they do not.
	Omega float64
	// Replacement selects replacement-selection run formation, whose
	// expected run length is 2M on random input (snowplow argument);
	// false models load-sort-store chunk formation with runs of exactly M.
	Replacement bool
	// AllowRefineAtMerge lets the planner consider deferring each run's
	// refine step 3 into the external merge (core.RunParts): formation
	// saves 2L+Rem~ precise writes per run, the merge fans in two cursors
	// per run instead of one.
	AllowRefineAtMerge bool
}

// ExternalPlan is the out-of-core half of a Plan: the chosen external
// geometry plus the predicted write budget that selected it. All write
// figures are equivalent precise word-writes (approximate writes weighted
// by ω).
type ExternalPlan struct {
	// Echoed model inputs.
	N         int64
	MemBudget int
	Block     int
	Omega     float64

	// Replacement records the formation discipline the geometry assumes.
	Replacement bool
	// UseHybrid is the external verdict: approx-refine run formation
	// (true) vs precise-only formation (false).
	UseHybrid bool
	// RefineAtMerge is set when runs should spill as LIS~/REM part pairs
	// (core.RunParts) and pay refine step 3 inside the external merge.
	RefineAtMerge bool
	// ExtraPass is set when refine-at-merge pays merge work beyond the
	// plain one-cursor-per-run geometry: either a single parts run still
	// needs one folding pass (MergePasses bumped from 0 to 1), or the part
	// pairs exceed the fan-in and the fragment-collapse term is charged
	// (CollapseWrites > 0). False means the LIS~/REM folds ride inside
	// merge passes the geometry pays anyway.
	ExtraPass bool

	// RunSize is the chosen per-run memory allotment in records (≤ M).
	RunSize int
	// RunLength is the expected emitted run length: 2·RunSize under
	// replacement selection, RunSize under chunk formation (capped at N).
	RunLength int
	// Runs, FanIn and MergePasses describe the merge tree: Runs initial
	// sorted runs, merged FanIn-at-a-time over MergePasses full passes.
	Runs        int64
	FanIn       int
	MergePasses int

	// FormationWrites, MergeWrites and TotalWrites are the predicted
	// equivalent precise writes of the chosen variant; PreciseWrites is
	// the all-precise alternative at its own best geometry, so
	// TotalWrites/PreciseWrites is the predicted external write ratio.
	// CollapseWrites is the refine-at-merge fragment-collapse term
	// already included in MergeWrites: the predicted REM volume the
	// fragment-aware fan-in allocator pre-folds when part pairs exceed
	// the fan-in (0 otherwise).
	FormationWrites float64
	MergeWrites     float64
	CollapseWrites  float64
	TotalWrites     float64
	PreciseWrites   float64
}

// extVariant is one candidate execution strategy at a fixed run size.
type extVariant struct {
	hybrid        bool
	refineAtMerge bool
}

// extGeometry derives the merge tree for a candidate: runs runs exposing
// cursorsPerRun cursors each, merged with fan-in min(M/B − 1, MaxFanIn).
func extGeometry(n int64, runLength int, cursorsPerRun int, ext ExtConfig) (runs int64, fanIn, passes int) {
	runs = (n + int64(runLength) - 1) / int64(runLength)
	fanIn = ext.MemBudget/ext.Block - 1
	if ext.MaxFanIn > 0 && fanIn > ext.MaxFanIn {
		fanIn = ext.MaxFanIn
	}
	if fanIn < 2 {
		fanIn = 2
	}
	cursors := runs * int64(cursorsPerRun)
	for c := cursors; c > 1; c = (c + int64(fanIn) - 1) / int64(fanIn) {
		passes++
	}
	return runs, fanIn, passes
}

func (e ExtConfig) check() (Geometry, error) { return e.checked() }

// checked validates e and applies its defaults.
func (e ExtConfig) checked() (ExtConfig, error) {
	if e.Block == 0 {
		e.Block = ExtBlockDefault
	}
	switch {
	case e.N <= 0:
		return e, errors.New("core: ExtConfig.N must be positive")
	case e.MemBudget < 2:
		return e, fmt.Errorf("core: ExtConfig.MemBudget = %d; need at least 2 records", e.MemBudget)
	case e.Block < 1:
		return e, fmt.Errorf("core: ExtConfig.Block = %d; need at least 1 record", e.Block)
	}
	return e, nil
}

// bound offers no pruning: the external contest compares whole
// geometries, which a pilot-free bound does not capture.
func (ExtConfig) bound(AlphaFunc, int, float64) float64 { return math.Inf(-1) }

// price plans an out-of-core sort of ext.N records from one candidate's
// pilot and returns its predicted External.TotalWrites: each candidate
// chooses its own best run size and formation variant, so candidates
// compete on whole geometries, not just α. The classic Plan fields carry
// the pilot measurements and the per-run Eq. 4 verdict at the chosen run
// length; Plan.External carries the geometry.
func (ext ExtConfig) price(pi pilot, _ int) (Plan, float64) {
	alpha := pi.alpha
	omega := ext.Omega
	if omega <= 0 {
		omega = pi.p
	}

	model := CostModel{P: omega, Alpha: alpha}
	// formationPerRecord predicts the formation cost of a run of L
	// records, per record, in equivalent precise writes. Using a
	// per-record rate keeps the final partial run from skewing the total.
	formationPerRecord := func(L int, v extVariant) float64 {
		fl := float64(L)
		switch {
		case !v.hybrid:
			return 2 * alpha(L) / fl
		case v.refineAtMerge:
			rem := pi.remAt(L)
			// Defer refine step 3's 2L+Rem~ precise writes to the merge.
			return (model.HybridWrites(L, rem) - float64(2*L+rem)) / fl
		default:
			return model.HybridWrites(L, pi.remAt(L)) / fl
		}
	}

	// Candidate run sizes: M, M/2, M/4, … — comparison sorts trade
	// cheaper (smaller-α-per-element) formation against extra merge
	// passes; radix always prefers the largest run. The floor keeps runs
	// at least a block wide and the candidate list short.
	minRun := ext.Block
	if minRun < 1024 {
		minRun = 1024
	}
	var runSizes []int
	for rs := ext.MemBudget; rs >= minRun; rs /= 2 {
		runSizes = append(runSizes, rs)
	}
	if len(runSizes) == 0 {
		runSizes = []int{ext.MemBudget}
	}

	variants := []extVariant{{hybrid: true}}
	if ext.AllowRefineAtMerge {
		variants = append(variants, extVariant{hybrid: true, refineAtMerge: true})
	}
	variants = append(variants, extVariant{hybrid: false})

	var best ExternalPlan
	bestTotal := math.Inf(1)
	bestPrecise := math.Inf(1)
	for _, rs := range runSizes {
		runLength := rs
		if ext.Replacement {
			runLength = 2 * rs
		}
		if int64(runLength) > ext.N {
			runLength = int(ext.N)
		}
		for _, v := range variants {
			runs, fanIn, passes := extGeometry(ext.N, runLength, 1, ext)
			extraPass := false
			if v.refineAtMerge && passes == 0 {
				// A single parts run still needs one pass to fold its
				// LIS~/REM pair.
				passes = 1
				extraPass = true
			}
			formation := formationPerRecord(runLength, v) * float64(ext.N)
			merge := float64(passes) * float64(ext.N)
			collapse := 0.0
			if v.refineAtMerge && 2*runs > int64(fanIn) {
				// Fragment-aware fan-in: once part pairs exceed the
				// fan-in, the merge pre-folds the small REM fragments
				// instead of paying a full extra pass; the predicted
				// collapse cost is the REM volume.
				collapse = float64(pi.remAt(runLength)) / float64(runLength) * float64(ext.N)
				extraPass = true
			}
			total := formation + merge + collapse
			if !v.hybrid && total < bestPrecise {
				bestPrecise = total
			}
			if total < bestTotal {
				bestTotal = total
				best = ExternalPlan{
					N:               ext.N,
					MemBudget:       ext.MemBudget,
					Block:           ext.Block,
					Omega:           omega,
					Replacement:     ext.Replacement,
					UseHybrid:       v.hybrid,
					RefineAtMerge:   v.refineAtMerge,
					ExtraPass:       extraPass,
					RunSize:         rs,
					RunLength:       runLength,
					Runs:            runs,
					FanIn:           fanIn,
					MergePasses:     passes,
					FormationWrites: formation,
					MergeWrites:     merge + collapse,
					CollapseWrites:  collapse,
					TotalWrites:     total,
				}
			}
		}
	}
	best.PreciseWrites = bestPrecise

	// The classic fields report the pilot measurement and the per-run
	// Eq. 4 verdict at the chosen run length.
	plan := pi.plan(best.RunLength)
	plan.UseHybrid = best.UseHybrid
	plan.External = &best
	return plan, best.TotalWrites
}
