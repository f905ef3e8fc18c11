// Package core implements the paper's primary contribution: the
// approx-refine execution mechanism for precise sorting on a hybrid
// precise/approximate memory system (Sections 4 and 5).
//
// The mechanism runs in five stages (Figure 8):
//
//  1. Warm-up — the input <Key, ID> pairs live in precise memory (arrays
//     Key0 and ID).
//  2. Approx preparation — Key0 is copied into approximate memory; the
//     copy itself may already corrupt keys.
//  3. Approx stage — an ordinary sorting algorithm sorts the approximate
//     key array together with the precise ID array. Cheap approximate
//     writes make this fast; corruption makes the result only *nearly*
//     sorted.
//  4. Refine preparation — bookkeeping only: the nearly sorted key view is
//     reconstructed on demand as Key0[ID[i]], so no data moves.
//  5. Refine stage — three write-limited steps turn the nearly sorted
//     order into a fully sorted precise output: (a) a one-pass O(n)
//     heuristic extracts an approximate longest increasing subsequence and
//     collects the leftover record IDs (REMID); (b) REMID is sorted with
//     the approx-stage algorithm, writing only IDs; (c) the two sorted
//     sequences merge into finalKey/finalID with 2n+Rem precise writes.
//
// Run executes the whole pipeline with per-stage accounting and an
// optional precise-only baseline, from which it derives the paper's write
// reduction (Equation 2). The analytical cost model of Section 4.3
// (Equation 4) is implemented in costmodel.go.
package core

import (
	"errors"
	"fmt"

	"approxsort/internal/mem"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
)

// Space is the approximate-memory contract Run needs: the mem.Space
// allocation/accounting interface. mem.ApproxSpace satisfies it for the
// MLC PCM model, spintronic.Space for the Appendix A model.
type Space interface {
	mem.Space
}

// Config selects the algorithm and the approximate-memory model for a run.
type Config struct {
	// Algorithm is the sorting algorithm used in the approx stage and
	// (per Section 4.2, Step 2) to sort REMID in the refine stage.
	Algorithm sorts.Algorithm

	// NewSpace supplies the approximate space, usually a memmodel
	// backend's NewApprox at one operating point (the MLC PCM model of
	// Section 3, the spintronic model of Appendix A, ...). It is
	// required and is called once per run with a seed derived from
	// Config.Seed.
	NewSpace func(seed uint64) Space

	// Seed makes the run reproducible. Both the approximate-memory
	// noise and quicksort's pivots derive from it.
	Seed uint64

	// SkipBaseline disables the precise-only reference run; the report's
	// reduction metrics are then unavailable (NaN-free: they return 0
	// and Baseline stays zero).
	SkipBaseline bool

	// MeasureSortedness enables post-approx-stage measurement of the
	// exact Rem ratio and error rate (Figures 4–7 quantities). The
	// measurement itself is uncharged (it uses Peek) but costs host CPU
	// time, so it is opt-in.
	MeasureSortedness bool

	// ExactLIS replaces the refine stage's O(n)/Rem~-write heuristic
	// (Listing 1) with an exact longest-non-decreasing-subsequence
	// computation. The remainder is minimal but the patience
	// bookkeeping costs Θ(n) extra precise writes — the trade-off the
	// paper's heuristic avoids. Intended for the ablation study.
	ExactLIS bool

	// PreciseSink and ApproxSink, when non-nil, are attached to the
	// run's spaces (which must support SetSink) so the access stream
	// can be traced or replayed through the cache + PCM pipeline. The
	// baseline run is never sinked; drive it separately when comparing
	// end-to-end access times.
	PreciseSink, ApproxSink mem.Sink
}

// sinkable is satisfied by spaces that can emit their access stream.
type sinkable interface{ SetSink(mem.Sink) }

func (c Config) validate() error {
	if c.Algorithm == nil {
		return errors.New("core: Config.Algorithm is required")
	}
	if c.NewSpace == nil {
		return errors.New("core: Config.NewSpace is required")
	}
	return nil
}

func (c Config) newSpace() Space { return c.NewSpace(c.Seed ^ 0x517cc1b727220a95) }

// StageBreakdown records the memory traffic one pipeline stage generated
// in each half of the hybrid system.
type StageBreakdown struct {
	Approx  mem.Stats
	Precise mem.Stats
}

// add accumulates o into b.
func (b *StageBreakdown) add(o StageBreakdown) {
	b.Approx.Add(o.Approx)
	b.Precise.Add(o.Precise)
}

// WriteNanos returns the stage's total memory write latency contribution.
func (b StageBreakdown) WriteNanos() float64 {
	return b.Approx.WriteNanos + b.Precise.WriteNanos
}

// WriteEnergy returns the stage's write energy in precise-write units.
func (b StageBreakdown) WriteEnergy() float64 {
	return b.Approx.WriteEnergy + b.Precise.WriteEnergy
}

// AccessNanos returns the stage's total device access time.
func (b StageBreakdown) AccessNanos() float64 {
	return b.Approx.AccessNanos() + b.Precise.AccessNanos()
}

// Writes returns the stage's total word-write count.
func (b StageBreakdown) Writes() int { return b.Approx.Writes + b.Precise.Writes }

// Report is the full accounting of one approx-refine run.
type Report struct {
	// Algorithm and N identify the run.
	Algorithm string
	N         int

	// Per-stage breakdowns (Figure 8's stage names).
	Prep        StageBreakdown // approx preparation: Key0 → approximate memory
	ApproxSort  StageBreakdown // approx stage: sort on hybrid arrays
	RefineFind  StageBreakdown // refine step 1: find LIS / collect REMID
	RefineSort  StageBreakdown // refine step 2: sort REMID
	RefineMerge StageBreakdown // refine step 3: merge into finalKey/finalID

	// RemTilde is the size of REMID found by the heuristic (Rem~), or
	// the exact Rem when the run used the ExactLIS ablation.
	RemTilde int

	// ExactLIS records whether the refine stage ran the exact-LIS
	// ablation instead of the paper's heuristic. Verification needs it:
	// the find step's precise-write identity is Rem~ for the heuristic
	// but 2n+Rem for the patience bookkeeping (see internal/verify).
	ExactLIS bool

	// PostApproxRem and PostApproxErrorRate are the exact Rem of the
	// nearly sorted key view Key0[ID[i]] and the Figure 4(a) error rate
	// of the approximate key array. Only filled when
	// Config.MeasureSortedness is set; otherwise -1.
	PostApproxRem       int
	PostApproxErrorRate float64

	// Baseline is the aggregate traffic of the traditional precise-only
	// sort of the same input (zero when skipped).
	Baseline mem.Stats

	// Sorted confirms the final output passed the precision check.
	Sorted bool
}

// ApproxPhase returns the combined preparation + approx-stage breakdown —
// the "Approx" bar of Figure 11.
func (r *Report) ApproxPhase() StageBreakdown {
	var b StageBreakdown
	b.add(r.Prep)
	b.add(r.ApproxSort)
	return b
}

// RefinePhase returns the combined refine-stage breakdown — the "Refine"
// bar of Figure 11.
func (r *Report) RefinePhase() StageBreakdown {
	var b StageBreakdown
	b.add(r.RefineFind)
	b.add(r.RefineSort)
	b.add(r.RefineMerge)
	return b
}

// Total returns the whole hybrid run's breakdown.
func (r *Report) Total() StageBreakdown {
	b := r.ApproxPhase()
	b.add(r.RefinePhase())
	return b
}

// WriteReduction returns Equation 2: the fraction of total memory write
// latency saved versus the precise-only baseline. Zero when the baseline
// was skipped.
func (r *Report) WriteReduction() float64 {
	// A skipped baseline has zero writes; with any writes, WriteNanos is
	// a positive multiple of the per-write constant.
	if r.Baseline.Writes == 0 {
		return 0
	}
	return 1 - r.Total().WriteNanos()/r.Baseline.WriteNanos
}

// EnergySaving returns the write-energy analogue of Equation 2 used by the
// Appendix A study.
func (r *Report) EnergySaving() float64 {
	if r.Baseline.Writes == 0 {
		return 0
	}
	return 1 - r.Total().WriteEnergy()/r.Baseline.WriteEnergy
}

// AccessTimeReduction returns the reduction in total memory access time
// (reads + writes), the metric behind the abstract's "up to 11%".
func (r *Report) AccessTimeReduction() float64 {
	if r.Baseline.Reads == 0 && r.Baseline.Writes == 0 {
		return 0
	}
	return 1 - r.Total().AccessNanos()/r.Baseline.AccessNanos()
}

// RemTildeRatio returns Rem~/n.
func (r *Report) RemTildeRatio() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.RemTilde) / float64(r.N)
}

// String implements fmt.Stringer with a one-paragraph run summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"approx-refine %s n=%d: Rem~=%d (%.2f%%), hybrid writes %.3fms vs baseline %.3fms, WR=%.2f%%, sorted=%v",
		r.Algorithm, r.N, r.RemTilde, 100*r.RemTildeRatio(),
		r.Total().WriteNanos()/1e6, r.Baseline.WriteNanos/1e6,
		100*r.WriteReduction(), r.Sorted)
}

// Result bundles the report with the final precise output.
type Result struct {
	Report *Report
	// Keys is the fully sorted precise key sequence (finalKey).
	Keys []uint32
	// IDs is the corresponding record-ID permutation (finalID).
	IDs []uint32
}

// Run executes the approx-refine pipeline over the input keys and returns
// the precise sorted output with full accounting. The input slice is not
// modified. The front half (warm-up through refine step 2) lives in
// startPipeline (parts.go) and is shared with RunParts.
func Run(keys []uint32, cfg Config) (Result, error) {
	p, err := startPipeline(keys, cfg)
	if err != nil {
		return Result{}, err
	}
	n := len(keys)
	report := p.report

	// Refine step 3: merge LIS and REM into the final precise output
	// (Listing 2).
	finalKey := p.precise.Alloc(n)
	finalID := p.precise.Alloc(n)
	mergeRefine(p.key0, p.id, p.remID, p.remCount, p.precise, finalKey, finalID)
	report.RefineMerge = p.takeDelta()

	out := Result{
		Report: report,
		Keys:   mem.PeekAll(finalKey), //nolint:memescape // result extraction after the run; charging these reads would perturb Eq. 2
		IDs:    mem.PeekAll(finalID),  //nolint:memescape // result extraction after the run; charging these reads would perturb Eq. 2
	}
	report.Sorted = sortedness.IsSorted(out.Keys)

	if !cfg.SkipBaseline {
		report.Baseline = baseline(keys, cfg)
	}
	return out, nil
}

// measureSortedness fills the Figure 4/Table 3 quantities: the exact Rem
// of the nearly sorted precise key view Key0[ID[i]] and the error rate of
// the approximate array. Uses Peek, so charges nothing.
func measureSortedness(report *Report, original []uint32, keyA, id mem.Words) {
	n := len(original)
	view := make([]uint32, n)
	ids := make([]int, n)
	approxKeys := mem.PeekAll(keyA) //nolint:memescape // instrumentation documented above: Peek charges nothing
	idsRaw := mem.PeekAll(id)       //nolint:memescape // instrumentation documented above: Peek charges nothing
	for i := 0; i < n; i++ {
		ids[i] = int(idsRaw[i])
		view[i] = original[ids[i]]
	}
	report.PostApproxRem = sortedness.Rem(view)
	report.PostApproxErrorRate = sortedness.ErrorRate(approxKeys, ids, original)
}

// baseline runs the traditional sort — keys and IDs both in precise
// memory — and returns its traffic (2·αalg(n) writes in the cost model's
// terms).
func baseline(keys []uint32, cfg Config) mem.Stats {
	n := len(keys)
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
	mem.Load(p.Keys, keys)
	mem.Load(p.IDs, iota32(n))
	space.ResetStats()
	env := sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15), Scratch: &sorts.Scratch{}}
	cfg.Algorithm.Sort(p, env)
	return space.Stats()
}

// iota32 returns [0, 1, ..., n-1] for bulk-loading identity ID arrays.
func iota32(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
