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
// the algorithm's writes per element, α(n)/n), and evaluates Equation 4
// for the geometry being sorted.
type Planner struct {
	// Config selects the memory model exactly as for Run. The algorithm
	// comes from Plan's candidates, so Config.Algorithm is ignored, as
	// are the baseline, sortedness and sink settings.
	Config Config

	// PilotSize is the sample size for the pilot run (default 4096,
	// clamped to the sample size).
	PilotSize int
}

// Plan is the planner's verdict for a concrete input.
type Plan struct {
	// Algorithm is the registry name of the candidate the planner chose.
	// It is set only when Plan chose among several candidates; a
	// one-element roster leaves it empty because the caller already fixed
	// the algorithm.
	Algorithm string `json:",omitempty"`
	// UseHybrid is true when approx-refine is predicted to beat the
	// precise-only sort.
	UseHybrid bool
	// PredictedWR is Equation 4 evaluated at the full size (at the chosen
	// run length for the external and sharded geometries).
	PredictedWR float64
	// P is the measured p(t) from the pilot.
	P float64
	// PilotRemRatio and PredictedRem are the pilot's Rem~/m and the
	// extrapolated full-size remainder.
	PilotRemRatio float64
	PredictedRem  int
	// PilotSize is the sample size actually used.
	PilotSize int
	// External is the out-of-core geometry verdict, set for the external
	// and sharded geometries (nil for in-memory plans).
	External *ExternalPlan `json:",omitempty"`
	// Sharded is the multi-node fan-out verdict, set only for the sharded
	// geometry (nil otherwise).
	Sharded *ShardedPlan `json:",omitempty"`
}

// Geometry is the shape of the sort a plan prices: InMemory, an
// ExtConfig (one node, out of core) or a ShardConfig (many nodes). Each
// geometry turns one candidate's pilot into a plan and the cost the
// candidates compete on.
type Geometry interface {
	// check validates the geometry and returns it with defaults applied.
	check() (Geometry, error)
	// bound is a lower bound on price's cost for a candidate whatever its
	// pilot measures, given that the pilot's p is at least floor, or −Inf
	// when the geometry offers none.
	bound(alpha AlphaFunc, n int, floor float64) float64
	// price evaluates the geometry for one piloted candidate over an
	// n-record sample.
	price(pi pilot, n int) (plan Plan, cost float64)
}

// InMemory is the geometry of one in-memory sort of the whole sample
// (N = len(sample)). Candidates compete on min(HybridWrites,
// BaselineWrites) at the pilot's measured p and extrapolated remainder:
// the two arms of the Section 4.3 switch (Eq. 4's WR is exactly
// 1 − Hybrid/Baseline, so the plan's UseHybrid already names the cheaper
// arm). Fixed-latency backends measure p = 1, which zeroes the hybrid
// advantage and reduces the contest to the smallest baseline 2·α(n).
type InMemory struct{}

// Plan pilots every candidate algorithm once over a strided sample and
// returns the plan of the one whose geometry prices cheapest; a fixed
// algorithm is a one-element roster. Ties break to the earlier candidate,
// so a sorted-name roster (sorts.AutoCandidates) makes the choice
// deterministic.
//
// For the in-memory geometry a candidate whose cost provably cannot win
// is not piloted: candidates are evaluated in ascending order of
// autoCostBound, and one is skipped when its bound already exceeds the
// best cost found, or equals it and the candidate comes later in the
// roster. The
// bound prices p at the write floor of the approximate space the first
// pilot built (every candidate's pilot builds the same kind), or at 0
// before any pilot has run. A skipped candidate's pilot errors therefore
// go unreported.
func (pl Planner) Plan(sample []uint32, geo Geometry, candidates []sorts.Candidate) (Plan, error) {
	if len(candidates) == 0 {
		return Plan{}, errors.New("core: the planner needs at least one candidate algorithm")
	}
	geo, err := geo.check()
	if err != nil {
		return Plan{}, err
	}
	cfg := pl.Config
	cfg.SkipBaseline = true
	cfg.MeasureSortedness = false
	cfg.PreciseSink, cfg.ApproxSink = nil, nil
	n := len(sample)
	alphas := make([]AlphaFunc, len(candidates))
	bounds := make([]float64, len(candidates))
	order := make([]int, len(candidates))
	for i, c := range candidates {
		cfg.Algorithm = c.Alg
		if err := cfg.validate(); err != nil {
			return Plan{}, err
		}
		alpha, err := AlphaFor(c.Alg)
		if err != nil {
			return Plan{}, err
		}
		alphas[i], bounds[i], order[i] = alpha, geo.bound(alpha, n, 0), i
	}
	// The bound is nondecreasing in α(n) at any floor, so this order is
	// also ascending once the floor is known.
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	// best is the lexicographic minimum of (cost, roster index) so far;
	// index −1 with cost +Inf means none, and a cost of +Inf never wins,
	// exactly as in a roster-order first-strict-minimum scan.
	var best Plan
	bestCost, bestIdx := math.Inf(1), -1
	floor := 0.0
	for _, i := range order {
		if bound := geo.bound(alphas[i], n, floor); bound > bestCost || bound == bestCost && i > bestIdx { //nolint:floatord // a bound and a cost from the same CostModel expressions; ties are exact
			continue
		}
		cfg.Algorithm = candidates[i].Alg
		pi, err := runPilot(sample, pl.PilotSize, cfg, alphas[i])
		if err != nil {
			return Plan{}, fmt.Errorf("core: pilot of %s: %w", candidates[i].Alg.Name(), err)
		}
		floor = pi.floor
		plan, cost := geo.price(pi, n)
		if cost < bestCost || cost == bestCost && i < bestIdx { //nolint:floatord // exact tie-break: equal costs go to the earlier roster entry
			bestCost, bestIdx = cost, i
			best = plan
		}
	}
	if len(candidates) > 1 && bestIdx >= 0 {
		best.Algorithm = candidates[bestIdx].Name
	}
	return best, nil
}

// PlanAuto is Plan for the in-memory geometry, kept as a name because the
// perfbench module replays sortd's auto pilot through it.
func (pl Planner) PlanAuto(keys []uint32, candidates []sorts.Candidate) (Plan, error) {
	return pl.Plan(keys, InMemory{}, candidates)
}

// pilot is one candidate's pilot measurement: the measured p(t) and
// Rem~/m over an m-record sample, with the candidate's write model, and
// the write floor of the approximate space it ran on (see writeFloor).
// Below two records nothing is measured: p = 1, the ratio is 1 and the
// floor is 0.
type pilot struct {
	p, ratio, floor float64
	m               int
	alpha           AlphaFunc
}

// runPilot runs cfg's approx-refine over an even-spread sample of m
// records (default 4096, clamped to the sample).
func runPilot(sample []uint32, m int, cfg Config, alpha AlphaFunc) (pilot, error) {
	if m <= 0 {
		m = 4096
	}
	if m > len(sample) {
		m = len(sample)
	}
	pi := pilot{p: 1, ratio: 1, m: m, alpha: alpha}
	if m < 2 {
		return pi, nil
	}
	// Read the floor off the space the run builds; the seed it receives
	// already carries newSpace's derivation, so the run is unchanged.
	build := cfg
	cfg.NewSpace = func(seed uint64) Space {
		s := build.spaceAt(seed)
		pi.floor = writeFloor(s)
		return s
	}
	res, err := Run(pilotSample(sample, m), cfg)
	if err != nil {
		return pilot{}, err
	}
	pi.p = measuredPilotP(res.Report)
	pi.ratio = res.Report.RemTildeRatio()
	return pi, nil
}

// remAt extrapolates the pilot remainder ratio to L records: corruption
// accumulates once per key write, so the ratio scales with the
// algorithm's writes per element, α(L)/L (1 for radix, log(L)/log(m) for
// the comparison sorts).
func (pi pilot) remAt(L int) int {
	ratio := pi.ratio
	if pi.m >= 2 {
		if am := pi.alpha(pi.m); am > 0 {
			ratio *= (pi.alpha(L) / float64(L)) / (am / float64(pi.m))
		}
	}
	if ratio > 1 {
		ratio = 1
	}
	return int(ratio * float64(L))
}

// plan returns the classic plan fields for an L-record sort at write
// ratio p: the pilot measurements and Equation 4 at the extrapolated
// remainder. Service inputs must always yield a JSON-encodable verdict:
// Equation 4 returns −Inf when α(L) is 0 (L < 2 for the comparison
// sorts), which still means "don't use hybrid", so it is clamped to the
// finite sentinel −1.
func (pi pilot) plan(L int) Plan {
	rem := pi.remAt(L)
	wr := CostModel{P: pi.p, Alpha: pi.alpha}.WriteReduction(L, rem)
	if math.IsInf(wr, 0) || math.IsNaN(wr) {
		wr = -1
	}
	return Plan{
		UseHybrid:     wr > 0,
		PredictedWR:   wr,
		P:             pi.p,
		PilotRemRatio: pi.ratio,
		PredictedRem:  rem,
		PilotSize:     pi.m,
	}
}

func (InMemory) check() (Geometry, error) { return InMemory{}, nil }

func (InMemory) bound(alpha AlphaFunc, n int, floor float64) float64 {
	return autoCostBound(alpha, n, floor)
}

func (InMemory) price(pi pilot, n int) (Plan, float64) {
	// Below two pilot records there is nothing to learn from; the hybrid
	// pipeline is pure overhead at these sizes anyway.
	plan := Plan{UseHybrid: false, PredictedWR: -1, P: 1, PilotSize: pi.m}
	if pi.m >= 2 {
		plan = pi.plan(n)
	}
	model := CostModel{P: plan.P, Alpha: pi.alpha}
	if plan.UseHybrid {
		return plan, model.HybridWrites(n, plan.PredictedRem)
	}
	return plan, model.BaselineWrites(n)
}

// autoCostBound is a lower bound on the in-memory cost of a candidate
// with write model alpha at size n, whatever its pilot measures as long
// as the measured p is at least floor: min(BaselineWrites(n),
// HybridWrites(n, 0) at p = floor). It holds exactly in floating point.
// The baseline arm does not depend on the pilot. Every term of the
// hybrid arm is at least the matching term at p = floor and Rem~ = 0,
// because p ≥ floor ≥ 0, Rem~ ≥ 0, α ≥ 0 and α(0) = 0 for every
// registered profile; the terms are summed in the same order, and
// rounding is monotone.
func autoCostBound(alpha AlphaFunc, n int, floor float64) float64 {
	return math.Min(CostModel{Alpha: alpha}.BaselineWrites(n), CostModel{P: floor, Alpha: alpha}.HybridWrites(n, 0))
}

// writeFloor returns a p that no pilot on space s can measure below, or
// 0 when s reports no floor. A space with a MinWriteNanos method charges
// every word write at least that latency, so the exact mean write
// latency over any writes is at least MinWriteNanos/PreciseWriteNanos.
// The measured p (measuredPilotP) is that mean after about ten
// floating-point roundings: the fold's latency formula, the stage
// subtraction and sum, and the two divisions. Each rounds by at most a
// relative 2^-53, so the measurement is within a relative 1e-14 of the
// exact mean; the floor is nudged down by a relative 1e-9, far beyond
// that, and p ≥ floor holds in floating point. A lower floor only
// weakens the bound: it can cost a pilot, never change the plan.
func writeFloor(s Space) float64 {
	f, ok := s.(interface{ MinWriteNanos() float64 })
	if !ok {
		return 0
	}
	return f.MinWriteNanos() / mlc.PreciseWriteNanos * (1 - 1e-9)
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
