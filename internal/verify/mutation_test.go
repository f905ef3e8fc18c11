package verify

// Mutation smoke test: prove the invariant checker actually fires.
//
// The test replicates core.Run's five-stage pipeline with copies of the
// refine-stage find and merge (the code under guard), runs it once with
// the faithful merge — which must pass Check, establishing that the copy
// is a true replica and the pass is not vacuous — and once with a
// deliberate off-by-one seeded into the merge's REM stream initialization
// (the classic regression the golden gate exists to catch), which must
// produce violations.

import (
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
)

type mergeFunc func(key0, id, remID mem.Words, remCount int, precise mem.Space, finalKey, finalID mem.Words)

// findREMCopy is a verbatim copy of core's refine Step 1 heuristic
// (Listing 1). Kept in sync by TestMutationPipelineFaithful: if the copy
// drifted from the original, its report would fail the checker's
// write-count identities.
func findREMCopy(key0, id, remID mem.Words) int {
	n := id.Len()
	if n < 2 {
		return 0
	}
	rem := 0
	tail := key0.Get(int(id.Get(0)))
	curID := id.Get(1)
	curKey := key0.Get(int(curID))
	for i := 1; i < n-1; i++ {
		nextID := id.Get(i + 1)
		nextKey := key0.Get(int(nextID))
		if curKey >= tail && curKey <= nextKey {
			tail = curKey
		} else {
			remID.Set(rem, curID)
			rem++
		}
		curID, curKey = nextID, nextKey
	}
	if curKey < tail {
		remID.Set(rem, curID)
		rem++
	}
	return rem
}

// mergeRefineCopy is a verbatim copy of core's refine Step 3 (Listing 2).
func mergeRefineCopy(key0, id, remID mem.Words, remCount int, precise mem.Space, finalKey, finalID mem.Words) {
	n := id.Len()
	inREM := precise.Alloc(max(n, 1))
	for i := 0; i < remCount; i++ {
		inREM.Set(int(remID.Get(i)), 1)
	}
	lisPtr, remPtr, out := 0, 0, 0
	for lisPtr < n {
		for lisPtr < n && inREM.Get(int(id.Get(lisPtr))) != 0 {
			lisPtr++
		}
		if lisPtr >= n {
			break
		}
		lisID := id.Get(lisPtr)
		lisKey := key0.Get(int(lisID))
		if remPtr < remCount {
			remIDv := remID.Get(remPtr)
			if remKey := key0.Get(int(remIDv)); remKey < lisKey {
				finalID.Set(out, remIDv)
				finalKey.Set(out, remKey)
				remPtr++
				out++
				continue
			}
		}
		finalID.Set(out, lisID)
		finalKey.Set(out, lisKey)
		lisPtr++
		out++
	}
	for remPtr < remCount {
		remIDv := remID.Get(remPtr)
		finalID.Set(out, remIDv)
		finalKey.Set(out, key0.Get(int(remIDv)))
		remPtr++
		out++
	}
}

// mergeRefineOffByOne is mergeRefineCopy with the seeded defect: the REM
// stream pointer starts at 1, silently dropping the smallest remainder
// element from the output (its slot is never written).
func mergeRefineOffByOne(key0, id, remID mem.Words, remCount int, precise mem.Space, finalKey, finalID mem.Words) {
	n := id.Len()
	inREM := precise.Alloc(max(n, 1))
	for i := 0; i < remCount; i++ {
		inREM.Set(int(remID.Get(i)), 1)
	}
	lisPtr, out := 0, 0
	remPtr := 1 // BUG: off by one, skips remID[0]
	if remCount == 0 {
		remPtr = 0
	}
	for lisPtr < n {
		for lisPtr < n && inREM.Get(int(id.Get(lisPtr))) != 0 {
			lisPtr++
		}
		if lisPtr >= n {
			break
		}
		lisID := id.Get(lisPtr)
		lisKey := key0.Get(int(lisID))
		if remPtr < remCount {
			remIDv := remID.Get(remPtr)
			if remKey := key0.Get(int(remIDv)); remKey < lisKey {
				finalID.Set(out, remIDv)
				finalKey.Set(out, remKey)
				remPtr++
				out++
				continue
			}
		}
		finalID.Set(out, lisID)
		finalKey.Set(out, lisKey)
		lisPtr++
		out++
	}
	for remPtr < remCount {
		remIDv := remID.Get(remPtr)
		finalID.Set(out, remIDv)
		finalKey.Set(out, key0.Get(int(remIDv)))
		remPtr++
		out++
	}
}

// runPipeline mirrors core.Run stage by stage — same seeds, same stage
// snapshots — with a pluggable merge.
func runPipeline(keys []uint32, alg sorts.Algorithm, tv float64, seed uint64, merge mergeFunc) core.Result {
	n := len(keys)
	precise := mem.NewPreciseSpace()
	approx := mem.NewApproxSpaceAt(tv, seed^0x517cc1b727220a95)
	report := &core.Report{
		Algorithm: alg.Name(), N: n, T: tv,
		PostApproxRem: -1, PostApproxErrorRate: -1,
	}

	key0 := precise.Alloc(n)
	mem.Load(key0, keys)
	id := precise.Alloc(n)
	for i := 0; i < n; i++ {
		id.Set(i, uint32(i))
	}
	precise.ResetStats()

	var prevA, prevP mem.Stats
	takeDelta := func() core.StageBreakdown {
		a, p := approx.Stats(), precise.Stats()
		d := core.StageBreakdown{Approx: a.Sub(prevA), Precise: p.Sub(prevP)}
		prevA, prevP = a, p
		return d
	}

	keyA := approx.Alloc(n)
	mem.Copy(keyA, key0)
	report.Prep = takeDelta()

	env := sorts.Env{KeySpace: approx, IDSpace: precise, R: rng.New(seed ^ 0x2545f4914f6cdd1d)}
	alg.Sort(sorts.Pair{Keys: keyA, IDs: id}, env)
	report.ApproxSort = takeDelta()

	remID := precise.Alloc(max(n, 1))
	rem := findREMCopy(key0, id, remID)
	report.RemTilde = rem
	report.RefineFind = takeDelta()

	alg.SortIDs(remID, rem, func(rid uint32) uint32 { return key0.Get(int(rid)) }, env)
	report.RefineSort = takeDelta()

	finalKey := precise.Alloc(n)
	finalID := precise.Alloc(n)
	merge(key0, id, remID, rem, precise, finalKey, finalID)
	report.RefineMerge = takeDelta()

	out := core.Result{Report: report, Keys: mem.PeekAll(finalKey), IDs: mem.PeekAll(finalID)}
	report.Sorted = sortedness.IsSorted(out.Keys)
	return out
}

const (
	mutationN    = 800
	mutationT    = 0.1
	mutationSeed = 20160626 // pinned; the paper's venue date
)

// TestMutationPipelineFaithful proves the copied pipeline is a true
// replica: its result must pass the full checker, and must bit-match what
// core.Run itself produces under the same seeds.
func TestMutationPipelineFaithful(t *testing.T) {
	keys := dataset.Uniform(mutationN, 99)
	alg := sorts.MSD{Bits: 6}
	res := runPipeline(keys, alg, mutationT, mutationSeed, mergeRefineCopy)
	if res.Report.RemTilde == 0 {
		t.Fatal("pilot produced Rem~ = 0; pick a harsher T so the mutation can manifest")
	}
	if err := Check(keys, res).Err(); err != nil {
		t.Fatalf("faithful copy failed verification — copy has drifted from core: %v", err)
	}
	want, err := core.Run(keys, core.Config{Algorithm: alg, T: mutationT, Seed: mutationSeed})
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffKeys(want.Keys, res.Keys); d != nil {
		t.Fatalf("copied pipeline diverges from core.Run: %v", d)
	}
}

// TestMutationIsCaught seeds the off-by-one and asserts the checker
// reports it — both the corrupted output and the broken write accounting.
func TestMutationIsCaught(t *testing.T) {
	keys := dataset.Uniform(mutationN, 99)
	res := runPipeline(keys, sorts.MSD{Bits: 6}, mutationT, mutationSeed, mergeRefineOffByOne)
	rep := Check(keys, res)
	if rep.OK() {
		t.Fatal("checker passed a run with a known off-by-one in the refine merge")
	}
	for _, code := range []string{"oracle-diff", "not-permutation", "merge-writes"} {
		if !hasCode(rep, code) {
			t.Errorf("expected violation %q, got %v", code, rep.Violations)
		}
	}
}

// pulseCharge wraps a word model and charges every word write a fixed
// pulse count instead of the model's own.
type pulseCharge struct {
	mlc.WordModel
	iters int
}

func (m pulseCharge) WriteWord(r *rng.Source, w uint32) (uint32, int) {
	stored, _ := m.WordModel.WriteWord(r, w)
	return stored, m.iters
}

// TestPulseFloorMutationIsCaught pins the accounting identity the
// planner's write floor rests on: a pcm-mlc run charged fewer than one
// pulse per cell fails approx-accounting, and the same run charged
// exactly one per cell passes.
func TestPulseFloorMutationIsCaught(t *testing.T) {
	keys := dataset.Uniform(mutationN, 99)
	table := mlc.CachedTable(mlc.Approximate(mutationT), 0, mlc.CalibrationSeed)
	cells := table.CellsPerWord()
	id := memmodel.MustGet(memmodel.PCMMLC).Identities(memmodel.Point{})
	if id.PulsesPerWrite != cells {
		t.Fatalf("pcm-mlc identities assert %d pulses per write, want one per cell (%d)", id.PulsesPerWrite, cells)
	}
	for _, tc := range []struct {
		iters int
		ok    bool
	}{{cells, true}, {cells - 1, false}} {
		model := pulseCharge{WordModel: table, iters: tc.iters}
		res, err := core.Run(keys, core.Config{
			Algorithm: sorts.MSD{Bits: 6},
			NewSpace:  func(s uint64) core.Space { return mem.NewApproxSpace(model, s) },
			Seed:      mutationSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckRefineRun(keys, res, id)
		if tc.ok && !rep.OK() {
			t.Errorf("%d pulses per word: %v", tc.iters, rep.Violations)
		}
		if !tc.ok && !hasCode(rep, "approx-accounting") {
			t.Errorf("%d pulses per word (%d cells): want approx-accounting, got %v", tc.iters, cells, rep.Violations)
		}
	}
}
