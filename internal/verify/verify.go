// Package verify makes the paper's correctness claims executable. The
// abstract's contract is that approx-refine "still guarantees to have the
// fully precise sorted sequence" while the refine stage spends fewer than
// 3n precise data writes plus the REMID sort (Sections 4–5, Equation 4).
// Nothing in a Report proves that by itself, so this package re-derives
// every invariant from first principles and checks a finished run against
// them:
//
//   - the output keys are exactly the reference precise sort of the input
//     (differential oracle, oracle.go);
//   - the output is a permutation of the input, the ID array is a
//     permutation of [0, n), and Keys[i] == input[IDs[i]] — record
//     identity survived the pipeline;
//   - Rem accounting holds: RemTilde ∈ [0, n], the exact post-approx Rem
//     (when measured) never exceeds the heuristic Rem~, and the find
//     stage wrote exactly its share of precise words;
//   - the refine stage's data writes obey the structural identity
//     2n + 2·Rem~ (heuristic) and the paper's 3n envelope whenever
//     Rem~ ≤ n/2, and never touch approximate memory at all;
//   - per-stage StageBreakdown stats reconcile: precise latency/energy
//     are exact multiples of the write count, MLC approximate energy
//     tracks latency, pulse counts cover every write, and the phase
//     roll-ups equal the sum of the five stages.
//
// Check is cheap relative to the instrumented runs it audits (O(n log n)
// host time, no simulated memory traffic), so the experiment sweeps and
// the sortd service run it on every result; cmd/regress and the fuzz
// targets drive arbitrary inputs through it.
package verify

import (
	"fmt"
	"math"
	"slices"

	"approxsort/internal/core"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
)

// Violation is one failed invariant. Code is a stable machine-readable
// identifier (tests and the regress gate match on it); Detail carries the
// indices and values a human needs to debug the failure.
type Violation struct {
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Code + ": " + v.Detail }

// Report collects the outcome of one verification pass.
type Report struct {
	// N is the verified run's input size.
	N int `json:"n"`
	// Checked counts the invariants evaluated (skipped checks — e.g.
	// baseline identities on a baseline-free run — are excluded).
	Checked int `json:"checked"`
	// Violations lists every failed invariant, in check order.
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every evaluated invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when OK, otherwise an error summarizing the first
// violation (and how many more there are).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	if len(r.Violations) == 1 {
		return fmt.Errorf("verify: %s", r.Violations[0])
	}
	return fmt.Errorf("verify: %s (and %d more violations)", r.Violations[0], len(r.Violations)-1)
}

func (r *Report) check(ok bool, code, format string, args ...any) {
	r.Checked++
	if !ok {
		r.Violations = append(r.Violations, Violation{Code: code, Detail: fmt.Sprintf(format, args...)})
	}
}

// relEps is the tolerance for floating-point accounting identities. The
// simulator accumulates per-access constants, so the sums are exact in
// practice; the epsilon only absorbs association-order noise.
const relEps = 1e-9

func closeEnough(a, b float64) bool {
	if a == b { //nolint:floatord // exact-equality fast path of the tolerance helper itself
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relEps*scale
}

// Check audits one finished approx-refine run against every invariant the
// paper promises, inferring the backend identity set from the report:
// Report.T > 0 means the MLC PCM model, anything else gets only the
// backend-independent identities. Callers that know their backend should
// prefer CheckRefineRun with the backend's own identity set — it audits
// strictly more. Check remains for runs whose backend is unknown at the
// call site (fuzz targets, raw core.Run users).
func Check(input []uint32, res core.Result) *Report {
	var id memmodel.Identities
	if res.Report != nil && res.Report.T > 0 {
		id = memmodel.MustGet(memmodel.PCMMLC).Identities(memmodel.Point{})
	}
	return CheckRefineRun(input, res, id)
}

// CheckRefineRun audits one finished approx-refine run against every
// invariant the paper promises, holding the approximate-space stats to
// the given backend identity set (memmodel.Backend.Identities). input
// must be the exact key slice passed to core.Run.
func CheckRefineRun(input []uint32, res core.Result, id memmodel.Identities) *Report {
	r := res.Report
	rep := &Report{N: len(input)}
	n := len(input)

	rep.check(r != nil, "result-shape", "Result.Report is nil")
	if r == nil {
		return rep
	}
	rep.check(r.N == n, "result-shape", "Report.N = %d, input has %d keys", r.N, n)
	rep.check(len(res.Keys) == n, "result-shape", "output has %d keys, want %d", len(res.Keys), n)
	rep.check(len(res.IDs) == n, "result-shape", "output has %d IDs, want %d", len(res.IDs), n)
	if len(res.Keys) != n || len(res.IDs) != n {
		return rep // elementwise checks below would index out of range
	}

	checkOutput(rep, input, res.Keys)

	// Record identity: IDs is a permutation of [0, n) and every output
	// key is the original key of the record it claims to be.
	seen := make([]bool, n)
	idsOK := true
	for i, id := range res.IDs {
		if int(id) >= n || seen[id] {
			rep.check(false, "id-not-permutation",
				"IDs[%d] = %d is out of range or repeated", i, id)
			idsOK = false
			break
		}
		seen[id] = true
	}
	if idsOK {
		rep.check(true, "id-not-permutation", "")
		for i, id := range res.IDs {
			if input[id] != res.Keys[i] {
				rep.check(false, "id-key-mismatch",
					"Keys[%d] = %d but input[IDs[%d]=%d] = %d",
					i, res.Keys[i], i, id, input[id])
				break
			}
		}
	}

	rep.check(r.Sorted == sortedness.IsSorted(res.Keys), "sorted-flag",
		"Report.Sorted = %v disagrees with the output", r.Sorted)

	checkRem(rep, r)
	checkRefineWrites(rep, r)
	checkStages(rep, r, id)
	return rep
}

// checkOutput runs the order and permutation invariants plus the
// differential oracle over an output key sequence. It is the shared core
// of Check and CheckOutput.
func checkOutput(rep *Report, input, keys []uint32) {
	sorted := sortedness.IsSorted(keys)
	rep.check(sorted, "output-unsorted", "output keys are not non-decreasing")
	ref := ReferenceSort(input)
	rep.check(isPermutation(ref, keys, sorted), "not-permutation",
		"output keys are not a permutation of the input")
	if d := DiffKeys(ref, keys); d != nil {
		rep.check(false, "oracle-diff", "%s", d)
	} else {
		rep.check(true, "oracle-diff", "")
	}
}

// isPermutation reports whether keys holds the same multiset as the input
// whose reference sort is ref; sorted says whether keys is
// non-decreasing. Two sequences are permutations of each other exactly
// when their sorted forms are equal, so a sorted output is compared to ref
// as it stands and only an unsorted one pays for sorting a copy.
func isPermutation(ref, keys []uint32, sorted bool) bool {
	if !sorted {
		keys = ReferenceSort(keys)
	}
	return slices.Equal(ref, keys)
}

// checkRem audits the Rem / Rem~ accounting.
func checkRem(rep *Report, r *core.Report) {
	rep.check(r.RemTilde >= 0 && r.RemTilde <= r.N, "rem-range",
		"RemTilde = %d out of [0, %d]", r.RemTilde, r.N)
	// The heuristic's remainder can never undercut the true Rem of the
	// nearly sorted view: removing RemTilde elements left a
	// non-decreasing subsequence, and Rem is the minimum such removal.
	if r.PostApproxRem >= 0 {
		rep.check(r.PostApproxRem <= r.RemTilde, "rem-vs-exact",
			"exact post-approx Rem %d exceeds heuristic Rem~ %d",
			r.PostApproxRem, r.RemTilde)
	}
}

// checkRefineWrites audits the refine stage's precise-write budget — the
// identities behind Equation 4's refine term Rem~ + α(Rem~) + Rem~ + 2n.
func checkRefineWrites(rep *Report, r *core.Report) {
	n, rem := r.N, r.RemTilde

	// Find step: the heuristic writes exactly Rem~ words (the REMID
	// array); the exact-LIS ablation adds the n-word parent and tail
	// bookkeeping arrays (2n + Rem writes total).
	wantFind := rem
	if r.ExactLIS {
		wantFind = 2*n + rem
	}
	if n >= 2 { // tiny inputs skip the scan entirely
		rep.check(r.RefineFind.Precise.Writes == wantFind, "find-writes",
			"find stage wrote %d precise words, want %d (exactLIS=%v)",
			r.RefineFind.Precise.Writes, wantFind, r.ExactLIS)
	}

	// Merge step: Rem~ REMIDset flags plus the 2n-word final output.
	if n > 0 {
		rep.check(r.RefineMerge.Precise.Writes == 2*n+rem, "merge-writes",
			"merge stage wrote %d precise words, want 2n+Rem~ = %d",
			r.RefineMerge.Precise.Writes, 2*n+rem)
	}

	// The paper's headline envelope: outside the REMID sort, the refine
	// stage spends fewer than 3n precise writes whenever the remainder
	// stays below n/2 — the operating region of every evaluated
	// configuration (Figure 9's Rem~ ratios top out near 30%).
	if !r.ExactLIS && n >= 2 && 2*rem <= n {
		dataWrites := r.RefineFind.Precise.Writes + r.RefineMerge.Precise.Writes
		rep.check(dataWrites <= 3*n, "refine-3n",
			"refine data writes %d exceed the 3n = %d bound at Rem~ = %d",
			dataWrites, 3*n, rem)
	}

	// The refine stage never touches approximate memory: it reads
	// precise Key0 and writes precise outputs only (Section 4.2 — the
	// whole point is that corrupted keys stop mattering after the
	// approx stage).
	for _, st := range []struct {
		name string
		b    core.StageBreakdown
	}{
		{"find", r.RefineFind}, {"sort", r.RefineSort}, {"merge", r.RefineMerge},
	} {
		rep.check(st.b.Approx.Reads == 0 && st.b.Approx.Writes == 0,
			"refine-touches-approx",
			"refine %s stage performed %d approximate reads and %d writes",
			st.name, st.b.Approx.Reads, st.b.Approx.Writes)
	}
}

// checkStages reconciles every stage's Stats with the device model's
// per-access constants and the Report's phase roll-ups. id selects the
// backend-specific approximate-write identities.
func checkStages(rep *Report, r *core.Report, id memmodel.Identities) {
	stages := []struct {
		name string
		b    core.StageBreakdown
	}{
		{"prep", r.Prep}, {"approx-sort", r.ApproxSort},
		{"refine-find", r.RefineFind}, {"refine-sort", r.RefineSort},
		{"refine-merge", r.RefineMerge},
	}

	var sum core.StageBreakdown
	for _, st := range stages {
		checkPreciseStats(rep, st.name, st.b.Precise)
		checkApproxStats(rep, st.name, st.b.Approx, id)
		sum.Approx.Add(st.b.Approx)
		sum.Precise.Add(st.b.Precise)
	}

	// Preparation copies Key0 into approximate memory: exactly n
	// approximate writes against n precise reads, nothing else.
	rep.check(r.Prep.Approx.Writes == r.N, "prep-writes",
		"prep stage wrote %d approximate words, want n = %d", r.Prep.Approx.Writes, r.N)
	rep.check(r.Prep.Precise.Writes == 0, "prep-writes",
		"prep stage wrote %d precise words, want 0", r.Prep.Precise.Writes)

	// Phase roll-ups must be the plain sum of the five stages.
	total := r.Total()
	rep.check(total.Writes() == sum.Writes() &&
		closeEnough(total.WriteNanos(), sum.WriteNanos()) &&
		closeEnough(total.WriteEnergy(), sum.WriteEnergy()) &&
		closeEnough(total.AccessNanos(), sum.AccessNanos()),
		"phase-reconcile",
		"Total() %+v does not equal the sum of the five stages %+v", total, sum)

	// Baseline, when present, is a pure precise-space run.
	if r.Baseline.Writes > 0 || r.Baseline.Reads > 0 {
		checkPreciseStats(rep, "baseline", r.Baseline)
	}
}

// checkPreciseStats verifies a precise region's Stats against the fixed
// device constants: every write costs mlc.PreciseWriteNanos and one energy
// unit, every read mlc.ReadNanos; precise writes never corrupt and issue
// no P&V pulses.
func checkPreciseStats(rep *Report, stage string, s mem.Stats) {
	rep.check(s.Reads >= 0 && s.Writes >= 0 && s.ReadNanos >= 0 && s.WriteNanos >= 0,
		"stage-negative", "%s precise stats have negative fields: %v", stage, s)
	rep.check(closeEnough(s.WriteNanos, float64(s.Writes)*mlc.PreciseWriteNanos),
		"precise-accounting", "%s precise WriteNanos %g != Writes %d × %g",
		stage, s.WriteNanos, s.Writes, mlc.PreciseWriteNanos)
	rep.check(closeEnough(s.WriteEnergy, float64(s.Writes)),
		"precise-accounting", "%s precise WriteEnergy %g != Writes %d",
		stage, s.WriteEnergy, s.Writes)
	rep.check(closeEnough(s.ReadNanos, float64(s.Reads)*mlc.ReadNanos),
		"precise-accounting", "%s precise ReadNanos %g != Reads %d × %g",
		stage, s.ReadNanos, s.Reads, mlc.ReadNanos)
	rep.check(s.Iters == 0 && s.Corrupted == 0,
		"precise-accounting", "%s precise stats report pulses/corruption: %v", stage, s)
}

// checkApproxStats verifies an approximate region's Stats: the
// backend-independent identities always, plus whichever backend-specific
// identities the memmodel.Identities set asserts. The zero Identities —
// used when the backend is unknown, e.g. a raw core.Run with a custom
// NewSpace — checks only the generic subset.
func checkApproxStats(rep *Report, stage string, s mem.Stats, id memmodel.Identities) {
	rep.check(s.Reads >= 0 && s.Writes >= 0 && s.ReadNanos >= 0 && s.WriteNanos >= 0,
		"stage-negative", "%s approx stats have negative fields: %v", stage, s)
	rep.check(s.Corrupted <= s.Writes,
		"approx-accounting", "%s approx Corrupted %d exceeds Writes %d",
		stage, s.Corrupted, s.Writes)
	readNanos := mlc.ReadNanos
	if id.ReadNanosPerRead > 0 {
		readNanos = id.ReadNanosPerRead
	}
	rep.check(closeEnough(s.ReadNanos, float64(s.Reads)*readNanos),
		"approx-accounting", "%s approx ReadNanos %g != Reads %d × %g",
		stage, s.ReadNanos, s.Reads, readNanos)
	if id.EnergyTracksLatency {
		rep.check(closeEnough(s.WriteEnergy*mlc.PreciseWriteNanos, s.WriteNanos),
			"approx-accounting", "%s approx WriteEnergy %g does not track WriteNanos %g",
			stage, s.WriteEnergy, s.WriteNanos)
	}
	if c := id.PulsesPerWrite; c > 0 {
		rep.check(s.Iters >= s.Writes*c,
			"approx-accounting", "%s approx issued %d pulses for %d writes (P&V needs ≥ %d each, one per cell)",
			stage, s.Iters, s.Writes, c)
	}
	if id.FixedWriteLatency {
		rep.check(closeEnough(s.WriteNanos, float64(s.Writes)*mlc.PreciseWriteNanos),
			"approx-accounting", "%s approx WriteNanos %g != Writes %d × %g (fixed-latency backend)",
			stage, s.WriteNanos, s.Writes, mlc.PreciseWriteNanos)
	}
	if id.EnergyPerWrite > 0 {
		rep.check(closeEnough(s.WriteEnergy, float64(s.Writes)*id.EnergyPerWrite),
			"approx-accounting", "%s approx WriteEnergy %g != Writes %d × %g",
			stage, s.WriteEnergy, s.Writes, id.EnergyPerWrite)
	}
}

// CheckAlgorithmWrites audits the approx stage's write counter against
// the algorithm's declared registry profile: when the profile marks Alpha
// as an exact structural count (Profile.ExactWrites — the LSD family,
// where every pass writes each element exactly twice), the approx-sort
// stage must have charged exactly α(n) approximate writes. Profiles
// without ExactWrites (comparison sorts' expectations, MSD's
// data-dependent insertion leaves) and tiny inputs (the sorts return
// before writing at n ≤ 1, where α still reports a full pass structure)
// evaluate no checks. This is the registry-era write-budget identity:
// it comes from the algorithm's declaration, not a hardcoded pass table.
func CheckAlgorithmWrites(alg sorts.Algorithm, r *core.Report) *Report {
	rep := &Report{}
	if r == nil {
		return rep
	}
	rep.N = r.N
	prof, ok := sorts.ProfileOf(alg)
	if !ok || !prof.ExactWrites || prof.Alpha == nil || r.N < 2 {
		return rep
	}
	want := int(prof.Alpha(r.N))
	rep.check(r.ApproxSort.Approx.Writes == want, "alpha-exact",
		"approx stage charged %d approximate writes, want exactly α(%d) = %d for %s",
		r.ApproxSort.Approx.Writes, r.N, want, alg.Name())
	return rep
}

// CheckOutput audits a plain precise-path output (no Report): order,
// permutation, and the differential oracle. The sortd precise executor and
// the fuzz targets use it where no stage accounting exists.
func CheckOutput(input, keys []uint32) *Report {
	rep := &Report{N: len(input)}
	rep.check(len(keys) == len(input), "result-shape",
		"output has %d keys, want %d", len(keys), len(input))
	if len(keys) != len(input) {
		return rep
	}
	checkOutput(rep, input, keys)
	return rep
}

// CheckApproxRun audits an approximate-only sort (the Section 3 /
// Appendix A studies, which never refine): the output and shadow-ID
// arrays must match the input's length, and the IDs — which live in
// precise shadow memory that corruption cannot touch — must still be a
// permutation of [0, n). The approximate space's aggregate stats are held
// to the backend identity set (memmodel.Backend.Identities; the zero
// Identities checks only the backend-independent subset). Key values are
// deliberately unchecked: value corruption is the phenomenon those
// studies measure. A violation means the sort lost or duplicated records
// or mis-accounted its traffic, so every derived metric (ErrorRate, Rem
// ratios, write reductions) would be measuring garbage.
func CheckApproxRun(input, keys []uint32, ids []int, stats mem.Stats, id memmodel.Identities) *Report {
	n := len(input)
	rep := &Report{N: n}
	rep.check(len(keys) == n, "result-shape", "output has %d keys, want %d", len(keys), n)
	rep.check(len(ids) == n, "result-shape", "output has %d IDs, want %d", len(ids), n)
	checkApproxStats(rep, "approx-only", stats, id)
	if len(ids) != n {
		return rep
	}
	seen := make([]bool, n)
	for i, rid := range ids {
		if rid < 0 || rid >= n || seen[rid] {
			rep.check(false, "id-not-permutation",
				"IDs[%d] = %d is out of range or repeated", i, rid)
			return rep
		}
		seen[rid] = true
	}
	rep.check(true, "id-not-permutation", "")
	return rep
}

// CheckPlan audits a planner verdict for service safety: every field the
// API serializes must be finite and inside its documented range.
func CheckPlan(n int, p core.Plan) *Report {
	rep := &Report{N: n}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PredictedWR", p.PredictedWR}, {"P", p.P}, {"PilotRemRatio", p.PilotRemRatio},
	} {
		rep.check(!math.IsNaN(f.v) && !math.IsInf(f.v, 0), "plan-nonfinite",
			"Plan.%s = %v is not finite", f.name, f.v)
	}
	rep.check(p.PilotSize >= 0 && p.PilotSize <= n, "plan-range",
		"PilotSize = %d out of [0, %d]", p.PilotSize, n)
	rep.check(p.PilotRemRatio >= 0 && p.PilotRemRatio <= 1, "plan-range",
		"PilotRemRatio = %v out of [0, 1]", p.PilotRemRatio)
	rep.check(p.PredictedRem >= 0 && p.PredictedRem <= n, "plan-range",
		"PredictedRem = %d out of [0, %d]", p.PredictedRem, n)
	rep.check(p.P >= 0, "plan-range", "P = %v is negative", p.P)
	rep.check(!p.UseHybrid || p.PredictedWR > 0, "plan-range",
		"UseHybrid = true but PredictedWR = %v is not positive", p.PredictedWR)
	return rep
}
