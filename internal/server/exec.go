package server

import (
	"fmt"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// execute runs one validated in-memory job to completion. pilotSize
// tunes the planner sample (0 = planner default). The spec's Seed is
// split by the job's coordinates — the algorithm name plus the backend
// point's seed-bearing parameters — never by arrival order, so
// resubmitting the same request — on any worker, at any concurrency —
// reproduces the same numbers (the serving-side analogue of the sweep
// determinism contract).
func execute(req *JobSpec, pilotSize int) (*JobResult, error) {
	keys := req.Keys
	if req.Dataset != nil {
		var err error
		keys, err = req.Dataset.materialize()
		if err != nil {
			return nil, err
		}
	}
	b, pt := req.backend, req.point
	res := &JobResult{
		Backend: b.Name(),
		Params:  pt.Params,
		N:       len(keys),
		T:       req.T,
	}

	// seed keys a sub-stream by purpose + algorithm label + job
	// coordinates. For pcm-mlc the coordinates are [t], reproducing the
	// pre-seam derivation bit-for-bit. The run stream of an auto job that
	// selected, say, msd is the run stream of an explicit msd job, so
	// resubmitting with the choice pinned reproduces the same numbers.
	coords := b.SeedCoords(pt)
	seed := func(kind, label string, extra ...any) uint64 {
		parts := append([]any{"sortd", kind, label}, coords...)
		return rng.Split(req.Seed, append(parts, extra...)...)
	}

	// One planner call serves both decisions: which algorithm (the auto
	// roster; one Equation 4 pilot per candidate, cheapest predicted
	// writes wins) and which mode (mode auto). No single algorithm owns
	// an auto job's pilot stream, so it is keyed by the roster label.
	cands := req.candidates(KindSort)
	alg, mode := cands[0].Alg, req.Mode
	if req.Algorithm == "auto" || mode == ModeAuto {
		label := alg.Name()
		if req.Algorithm == "auto" {
			label = "auto"
		}
		plan, err := core.Planner{
			Config:    core.Config{NewSpace: func(s uint64) core.Space { return b.NewApprox(pt, s) }, Seed: seed("pilot", label)},
			PilotSize: pilotSize,
		}.Plan(keys, core.InMemory{}, cands)
		if err == nil {
			err = verify.CheckPlan(len(keys), plan).Err()
		}
		if err == nil && plan.Algorithm != "" {
			alg, err = sorts.New(plan.Algorithm, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		res.Plan = planView(plan)
		res.PredictedWR = plan.PredictedWR
		if mode == ModeAuto {
			mode = ModePrecise
			if plan.UseHybrid {
				mode = ModeHybrid
			}
		}
	}
	res.Algorithm = alg.Name()
	res.Mode = mode

	runSeed := seed("run", alg.Name(), len(keys))
	var err error
	if mode == ModeHybrid {
		err = executeHybrid(res, keys, alg, req, runSeed)
	} else {
		err = executePrecise(res, keys, alg, req, runSeed)
	}
	if err != nil {
		return nil, err
	}
	res.sanitize()
	return res, nil
}

// planView projects a core plan into the response shape. Algorithm is
// empty (and omitted from the JSON) for explicit-algorithm jobs, whose
// one-element roster left the planner only the mode to pick.
func planView(plan core.Plan) *PlanView {
	return &PlanView{
		Algorithm:     plan.Algorithm,
		UseHybrid:     plan.UseHybrid,
		PredictedWR:   plan.PredictedWR,
		P:             plan.P,
		PilotRemRatio: plan.PilotRemRatio,
		PredictedRem:  plan.PredictedRem,
		PilotSize:     plan.PilotSize,
	}
}

// executeHybrid runs approx-refine with both spaces sinked into one
// Table 1 memory system, plus the precise-only baseline for the measured
// write reduction. The approximate region's device clock charges the
// backend's modelled mean write latency.
func executeHybrid(res *JobResult, keys []uint32, alg sorts.Algorithm, req *JobSpec, seed uint64) error {
	b, pt := req.backend, req.point
	sys := hybrid.New()
	out, err := core.Run(keys, core.Config{
		Algorithm:   alg,
		NewSpace:    func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:        seed,
		PreciseSink: sys.Region("precise", mlc.PreciseWriteNanos),
		ApproxSink:  sys.Region("approx", b.ApproxWriteNanos(pt)),
	})
	if err != nil {
		return err
	}
	// Every served job passes through the full invariant checker — held
	// to the backend's accounting identities — plus the memory-system
	// consistency check before its result is stored — a routing or refine
	// regression fails the job loudly instead of returning a
	// slightly-wrong payload.
	if err := verify.CheckRefineRun(keys, out, b.Identities(pt)).Err(); err != nil {
		return err
	}
	if err := verify.CheckAlgorithmWrites(alg, out.Report).Err(); err != nil {
		return err
	}
	if err := sys.Stats().Check(); err != nil {
		return err
	}
	r := out.Report
	total := r.Total()
	res.Rem = r.RemTilde
	res.Writes = WriteCounts{
		Approx:   total.Approx.Writes,
		Precise:  total.Precise.Writes,
		Baseline: r.Baseline.Writes,
	}
	res.ActualWR = r.WriteReduction()
	res.WriteNanos = total.WriteNanos()
	res.PCMNanos = sys.Clock()
	res.Sorted = r.Sorted
	res.Verified = true
	if req.ReturnKeys {
		res.Keys = out.Keys
	}
	return nil
}

// executePrecise runs the traditional sort — keys and IDs both precise —
// through its own memory system. It is the baseline, so ActualWR is 0 by
// construction and Baseline mirrors the run itself.
func executePrecise(res *JobResult, keys []uint32, alg sorts.Algorithm, req *JobSpec, seed uint64) error {
	n := len(keys)
	sys := hybrid.New()
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
	mem.Load(p.Keys, keys)
	mem.Load(p.IDs, dataset.IDs(n))
	// Accounting and the device clock start after warm-up, matching
	// core.Run and the paper's methodology.
	space.ResetStats()
	space.SetSink(sys.Region("precise", mlc.PreciseWriteNanos))
	alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed)})

	st := space.Stats()
	sorted := mem.PeekAll(p.Keys) //nolint:memescape // response extraction after the accounted run
	// The precise path has no stage accounting, but its output contract
	// is identical: sorted, a permutation, and equal to the reference
	// oracle sort.
	if err := verify.CheckOutput(keys, sorted).Err(); err != nil {
		return err
	}
	if err := sys.Stats().Check(); err != nil {
		return err
	}
	res.Writes = WriteCounts{Precise: st.Writes, Baseline: st.Writes}
	res.WriteNanos = st.WriteNanos
	res.PCMNanos = sys.Clock()
	res.Sorted = true
	res.Verified = true
	if req.ReturnKeys {
		res.Keys = sorted
	}
	return nil
}
