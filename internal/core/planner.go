package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"approxsort/internal/mlc"
	"approxsort/internal/sorts"
)

// Planner implements the switch decision sketched at the end of
// Section 4.3: "With obtaining WR in the cost analysis, we can decide
// whether the approx-refine approach on the hybrid memory is better than
// the sorting algorithm on precise memory only, and switch between the two
// approaches accordingly."
//
// Rem~ and p(t) are not known before running, so the planner measures both
// on a small pilot: it runs approx-refine over a strided sample of the
// input, reads the pilot's Rem~ ratio and mean approximate write latency,
// extrapolates Rem~ to the full size (corruption per element scales with
// the algorithm's writes per element, α(n)/n), and evaluates Equation 4.
type Planner struct {
	// Config selects the algorithm and memory model exactly as for Run.
	// Baseline and sortedness measurement settings are ignored.
	Config Config

	// PilotSize is the sample size for the pilot run (default 4096,
	// clamped to the input size).
	PilotSize int
}

// Plan is the planner's verdict for a concrete input.
type Plan struct {
	// Algorithm is the registry name of the algorithm the plan evaluates.
	// Set only by the auto planners (PlanAuto and friends), which choose
	// it; single-algorithm plans leave it empty because the caller already
	// fixed the algorithm.
	Algorithm string `json:",omitempty"`
	// UseHybrid is true when approx-refine is predicted to beat the
	// precise-only sort.
	UseHybrid bool
	// PredictedWR is Equation 4 evaluated at the full size.
	PredictedWR float64
	// P is the measured p(t) from the pilot.
	P float64
	// PilotRemRatio and PredictedRem are the pilot's Rem~/m and the
	// extrapolated full-size remainder.
	PilotRemRatio float64
	PredictedRem  int
	// PilotSize is the sample size actually used.
	PilotSize int
	// External is the out-of-core geometry verdict, set only by
	// PlanExternal (nil for in-memory plans).
	External *ExternalPlan `json:",omitempty"`
	// Sharded is the multi-node fan-out verdict, set only by PlanSharded
	// (nil for single-node plans).
	Sharded *ShardedPlan `json:",omitempty"`
}

// Plan runs the pilot over a strided sample of keys and returns the
// verdict for sorting all of them.
func (pl Planner) Plan(keys []uint32) (Plan, error) {
	n := len(keys)
	cfg := pl.Config
	cfg.SkipBaseline = true
	cfg.MeasureSortedness = false
	cfg.PreciseSink, cfg.ApproxSink = nil, nil
	if err := cfg.validate(); err != nil {
		return Plan{}, err
	}
	alpha, err := AlphaFor(cfg.Algorithm)
	if err != nil {
		return Plan{}, fmt.Errorf("core: planner needs an analytic α: %w", err)
	}

	m := pl.PilotSize
	if m <= 0 {
		m = 4096
	}
	if m > n {
		m = n
	}
	if m < 2 {
		// Nothing to learn from; the hybrid pipeline is pure overhead
		// at these sizes anyway.
		return Plan{UseHybrid: false, PredictedWR: -1, P: 1, PilotSize: m}, nil
	}
	pilot := pilotSample(keys, m)

	res, err := Run(pilot, cfg)
	if err != nil {
		return Plan{}, err
	}
	r := res.Report
	p := measuredPilotP(r)
	pilotRatio := r.RemTildeRatio()

	// Corruption accumulates once per key write, so scale the remainder
	// ratio by the algorithms' writes-per-element ratio between the two
	// sizes (1 for radix, log(n)/log(m) for the comparison sorts).
	scale := 1.0
	if am := alpha(m); am > 0 {
		scale = (alpha(n) / float64(n)) / (am / float64(m))
	}
	predictedRatio := pilotRatio * scale
	if predictedRatio > 1 {
		predictedRatio = 1
	}
	predictedRem := int(predictedRatio * float64(n))

	model := CostModel{P: p, Alpha: alpha}
	wr := model.WriteReduction(n, predictedRem)
	// Service inputs must always yield a JSON-encodable verdict:
	// Equation 4 returns −Inf when α(n) is 0 (n < 2 for the comparison
	// sorts), which still means "don't use hybrid" — clamp it to the same
	// finite sentinel the tiny-input path uses.
	if math.IsInf(wr, 0) || math.IsNaN(wr) {
		wr = -1
	}
	return Plan{
		UseHybrid:     wr > 0,
		PredictedWR:   wr,
		P:             p,
		PilotRemRatio: pilotRatio,
		PredictedRem:  predictedRem,
		PilotSize:     m,
	}, nil
}

// PlanAuto returns the plan of the candidate algorithm with the lowest
// predicted write cost on this backend: min(HybridWrites, BaselineWrites)
// at the pilot's measured p and extrapolated remainder (the two arms of
// the Section 4.3 switch; Eq. 4's WR is exactly 1 − Hybrid/Baseline, so
// the chosen plan's UseHybrid mode already names the cheaper arm).
// Backend-awareness needs no extra plumbing: fixed-latency backends
// measure p = 1, which zeroes the hybrid advantage and reduces the
// contest to the smallest baseline 2·α(n), while write-asymmetric
// backends weight each candidate's α by its measured latency ratio. Ties
// break to the earlier candidate, so a sorted-name roster
// (sorts.AutoCandidates) makes the choice deterministic.
//
// The choice is that of running the pilot for every candidate, but a
// candidate whose cost provably cannot win is not piloted: candidates are
// evaluated in ascending order of autoCostBound, and one is skipped when
// its bound already exceeds the best cost found, or equals it and the
// candidate comes later in the roster. A skipped candidate's pilot errors
// therefore go unreported.
func (pl Planner) PlanAuto(keys []uint32, candidates []sorts.Candidate) (Plan, error) {
	if len(candidates) == 0 {
		return Plan{}, errors.New("core: PlanAuto needs at least one candidate algorithm")
	}
	n := len(keys)
	alphas := make([]AlphaFunc, len(candidates))
	bounds := make([]float64, len(candidates))
	order := make([]int, len(candidates))
	for i, c := range candidates {
		alpha, err := AlphaFor(c.Alg)
		if err != nil {
			return Plan{}, fmt.Errorf("core: auto candidate %q: %w", c.Name, err)
		}
		alphas[i], bounds[i], order[i] = alpha, autoCostBound(alpha, n), i
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	// best is the lexicographic minimum of (cost, roster index) so far;
	// index −1 with cost +Inf means none, and a cost of +Inf never wins,
	// exactly as in a roster-order first-strict-minimum scan.
	var best Plan
	bestCost, bestIdx := math.Inf(1), -1
	for _, i := range order {
		if bounds[i] > bestCost || bounds[i] == bestCost && i > bestIdx { //nolint:floatord // a bound and a cost from the same CostModel expressions; ties are exact
			continue
		}
		cpl := pl
		cpl.Config.Algorithm = candidates[i].Alg
		plan, err := cpl.Plan(keys)
		if err != nil {
			return Plan{}, fmt.Errorf("core: auto candidate %q: %w", candidates[i].Name, err)
		}
		model := CostModel{P: plan.P, Alpha: alphas[i]}
		cost := model.BaselineWrites(n)
		if plan.UseHybrid {
			cost = model.HybridWrites(n, plan.PredictedRem)
		}
		if cost < bestCost || cost == bestCost && i < bestIdx { //nolint:floatord // exact tie-break: equal costs go to the earlier roster entry
			bestCost, bestIdx = cost, i
			plan.Algorithm = candidates[i].Name
			best = plan
		}
	}
	return best, nil
}

// autoCostBound is a lower bound on the cost PlanAuto computes for a
// candidate with write model alpha at size n, whatever its pilot
// measures: min(BaselineWrites(n), HybridWrites(n, 0) at p = 0). It holds
// exactly in floating point. The baseline arm does not depend on the
// pilot. Every term of the hybrid arm is at least the matching term at
// p = 0 and Rem~ = 0, because p ≥ 0, Rem~ ≥ 0, α ≥ 0 and α(0) = 0 for
// every registered profile; the terms are summed in the same order, and
// rounding is monotone.
func autoCostBound(alpha AlphaFunc, n int) float64 {
	return math.Min(CostModel{Alpha: alpha}.BaselineWrites(n), CostModel{Alpha: alpha}.HybridWrites(n, 0))
}

// pilotSample draws an m-element even-spread sample: element i comes from
// index ⌊i·n/m⌋, so the sample covers the whole input even when m does not
// divide n. (A ⌊n/m⌋ stride degenerates to a prefix sample for any
// n < 2m — stride 1 reads only the first m keys — which skews the pilot
// badly on clustered or value-banded service inputs.)
func pilotSample(keys []uint32, m int) []uint32 {
	n := len(keys)
	pilot := make([]uint32, m)
	for i := 0; i < m; i++ {
		pilot[i] = keys[i*n/m]
	}
	return pilot
}

func measuredPilotP(r *Report) float64 {
	a := r.ApproxPhase().Approx
	if a.Writes == 0 {
		return 1
	}
	return a.WriteNanos / float64(a.Writes) / mlc.PreciseWriteNanos
}
