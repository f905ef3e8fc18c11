package core

import (
	"fmt"

	"approxsort/internal/mem"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
)

// pipeline is the state of one approx-refine run between the shared front
// half (warm-up through refine step 2) and the two back halves: the final
// in-memory merge (Run) or parts extraction for a deferred merge
// (RunParts). Splitting here is exactly the paper's structural seam — the
// refine stage's step 3 is itself a 2-way merge, so an external sort can
// fold it into its own k-way merge instead of paying for it twice.
type pipeline struct {
	cfg     Config
	precise *mem.PreciseSpace
	approx  Space
	report  *Report

	key0, id mem.Words
	remID    mem.Words
	remCount int
	env      sorts.Env

	prevA, prevP mem.Stats
}

// takeDelta snapshots both spaces and returns the traffic since the last
// snapshot — the per-stage accounting device of Figure 8.
func (p *pipeline) takeDelta() StageBreakdown {
	a, pr := p.approx.Stats(), p.precise.Stats()
	d := StageBreakdown{Approx: a.Sub(p.prevA), Precise: pr.Sub(p.prevP)}
	p.prevA, p.prevP = a, pr
	return d
}

// startPipeline executes warm-up, approx preparation, the approx stage,
// and refine steps 1–2 (find REM, sort REMID), charging each stage to the
// report. The caller finishes the run with either the in-memory refine
// merge or parts extraction. The operation sequence is identical to the
// historical Run body, so existing goldens replay bit-for-bit.
func startPipeline(keys []uint32, cfg Config) (*pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(keys)
	p := &pipeline{cfg: cfg, precise: mem.NewPreciseSpace(), approx: cfg.newSpace()}
	if cfg.ApproxSink != nil {
		s, ok := p.approx.(sinkable)
		if !ok {
			return nil, fmt.Errorf("core: approximate space %T cannot attach a sink", p.approx)
		}
		s.SetSink(cfg.ApproxSink)
	}
	p.report = &Report{
		Algorithm:           cfg.Algorithm.Name(),
		N:                   n,
		ExactLIS:            cfg.ExactLIS,
		PostApproxRem:       -1,
		PostApproxErrorRate: -1,
	}

	// Warm-up: Key0 and ID materialize in precise memory. The paper's
	// accounting starts after warm-up (the input is assumed resident),
	// so the load is not charged.
	p.key0 = p.precise.Alloc(n)
	mem.Load(p.key0, keys)
	p.id = p.precise.Alloc(n)
	mem.Load(p.id, iota32(n))
	p.precise.ResetStats()
	// The trace sink, like the accounting, starts after warm-up: the
	// paper assumes the input is already resident.
	if cfg.PreciseSink != nil {
		p.precise.SetSink(cfg.PreciseSink)
	}

	// Approx preparation: copy the keys into approximate memory.
	keyA := p.approx.Alloc(n)
	mem.Copy(keyA, p.key0)
	p.report.Prep = p.takeDelta()

	// Approx stage: sort <Key~, ID> with keys in approximate memory. The
	// Env is the run context: its Scratch is shared by the approx-stage
	// sort and the refine stage's SortIDs, so both reuse one set of bulk
	// staging buffers.
	p.env = sorts.Env{KeySpace: p.approx, IDSpace: p.precise, R: rng.New(cfg.Seed ^ 0x2545f4914f6cdd1d), Scratch: &sorts.Scratch{}}
	cfg.Algorithm.Sort(sorts.Pair{Keys: keyA, IDs: p.id}, p.env)
	p.report.ApproxSort = p.takeDelta()

	if cfg.MeasureSortedness {
		measureSortedness(p.report, keys, keyA, p.id)
	}

	// Refine step 1: one-pass approximate-LIS scan (Listing 1), or the
	// exact-LIS ablation variant.
	p.remID = p.precise.Alloc(maxInt(n, 1))
	if cfg.ExactLIS {
		p.remCount = findREMExact(p.key0, p.id, p.remID, p.precise)
	} else {
		p.remCount = findREM(p.key0, p.id, p.remID)
	}
	p.report.RemTilde = p.remCount
	p.report.RefineFind = p.takeDelta()

	// Refine step 2: sort REMID by key value with the same algorithm,
	// writing only IDs (Listing discussion, Section 4.2 Step 2).
	cfg.Algorithm.SortIDs(p.remID, p.remCount, func(rid uint32) uint32 {
		return p.key0.Get(int(rid))
	}, p.env)
	p.report.RefineSort = p.takeDelta()
	return p, nil
}

// Parts is the outcome of a run whose refine merge was deferred: the two
// sorted sequences that refine step 3 would have merged, extracted with
// record identity intact. Concatenating a merge of LisKeys and RemKeys
// yields exactly the precise sort of the input.
type Parts struct {
	// Report carries the accounting of the four executed stages; the
	// RefineMerge breakdown is zero by construction, and Sorted reports
	// whether both parts are individually non-decreasing.
	Report *Report
	// LisKeys/LisIDs is the kept LIS~ subsequence in post-approx order
	// (non-decreasing keys by the find-step invariant).
	LisKeys, LisIDs []uint32
	// RemKeys/RemIDs is the sorted remainder (refine step 2's output).
	RemKeys, RemIDs []uint32
}

// RunParts executes the approx-refine pipeline but stops before refine
// step 3, returning the sorted LIS~ and REM sequences instead of merging
// them. External sorting uses it as the refine-at-merge run formation: the
// 2n + Rem~ precise writes of the in-memory merge are deferred into the
// k-way run merge that has to stream every record anyway, so they are paid
// once, not twice (DESIGN.md §14). The baseline is never run (parts have
// no Equation 2 denominator); MeasureSortedness behaves as in Run.
func RunParts(keys []uint32, cfg Config) (Parts, error) {
	cfg.SkipBaseline = true
	p, err := startPipeline(keys, cfg)
	if err != nil {
		return Parts{}, err
	}
	n := len(keys)
	r := p.report

	// Extraction is instrumentation, not simulated traffic: like Run's
	// PeekAll result extraction, it must not perturb the accounting.
	idsRaw := mem.PeekAll(p.id)                 //nolint:memescape // result extraction after the run; charging these reads would perturb the parts accounting
	key0Raw := mem.PeekAll(p.key0)              //nolint:memescape // result extraction after the run; charging these reads would perturb the parts accounting
	remRaw := mem.PeekAll(p.remID)[:p.remCount] //nolint:memescape // result extraction after the run; charging these reads would perturb the parts accounting

	inREM := make([]bool, n)
	for _, rid := range remRaw {
		inREM[rid] = true
	}
	parts := Parts{
		Report:  r,
		LisKeys: make([]uint32, 0, n-p.remCount),
		LisIDs:  make([]uint32, 0, n-p.remCount),
		RemKeys: make([]uint32, p.remCount),
		RemIDs:  make([]uint32, p.remCount),
	}
	for _, rid := range idsRaw {
		if inREM[rid] {
			continue
		}
		parts.LisIDs = append(parts.LisIDs, rid)
		parts.LisKeys = append(parts.LisKeys, key0Raw[rid])
	}
	for i, rid := range remRaw {
		parts.RemIDs[i] = rid
		parts.RemKeys[i] = key0Raw[rid]
	}
	r.Sorted = sortedness.IsSorted(parts.LisKeys) && sortedness.IsSorted(parts.RemKeys)
	return parts, nil
}
