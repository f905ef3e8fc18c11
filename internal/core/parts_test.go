package core

import (
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
)

// mergeParts replays refine step 3 on the host: a 2-way merge of the LIS~
// and REM sequences must reconstruct the precise sort.
func mergeParts(p Parts) (keys, ids []uint32) {
	n := len(p.LisKeys) + len(p.RemKeys)
	keys = make([]uint32, 0, n)
	ids = make([]uint32, 0, n)
	i, j := 0, 0
	for i < len(p.LisKeys) || j < len(p.RemKeys) {
		if j >= len(p.RemKeys) || (i < len(p.LisKeys) && p.LisKeys[i] <= p.RemKeys[j]) {
			keys = append(keys, p.LisKeys[i])
			ids = append(ids, p.LisIDs[i])
			i++
		} else {
			keys = append(keys, p.RemKeys[j])
			ids = append(ids, p.RemIDs[j])
			j++
		}
	}
	return keys, ids
}

func TestRunPartsMergeReconstructsPreciseSort(t *testing.T) {
	keys := dataset.Uniform(5000, 7)
	for _, alg := range sorts.Standard(3, 6) {
		parts, err := RunParts(keys, Config{Algorithm: alg, NewSpace: mlcSpace(0.055), Seed: 21})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !parts.Report.Sorted {
			t.Fatalf("%s: parts not individually sorted", alg.Name())
		}
		if got := len(parts.RemKeys); got != parts.Report.RemTilde {
			t.Fatalf("%s: RemKeys length %d != RemTilde %d", alg.Name(), got, parts.Report.RemTilde)
		}
		merged, ids := mergeParts(parts)
		checkResult(t, keys, Result{Report: parts.Report, Keys: merged, IDs: ids})
	}
}

func TestRunPartsMatchesRunFrontHalf(t *testing.T) {
	// The shared pipeline contract: with identical config, RunParts and
	// Run must agree on everything up to refine step 3 — same Rem~, same
	// per-stage accounting, and an empty RefineMerge breakdown for parts.
	keys := dataset.Uniform(8000, 11)
	cfg := Config{Algorithm: sorts.MSD{Bits: 6}, NewSpace: mlcSpace(0.07), Seed: 5, SkipBaseline: true}
	res, err := Run(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := RunParts(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr, rr := parts.Report, res.Report
	if pr.RemTilde != rr.RemTilde {
		t.Fatalf("RemTilde %d != Run's %d", pr.RemTilde, rr.RemTilde)
	}
	for _, st := range []struct {
		name string
		p, r StageBreakdown
	}{
		{"Prep", pr.Prep, rr.Prep},
		{"ApproxSort", pr.ApproxSort, rr.ApproxSort},
		{"RefineFind", pr.RefineFind, rr.RefineFind},
		{"RefineSort", pr.RefineSort, rr.RefineSort},
	} {
		if st.p != st.r {
			t.Fatalf("%s breakdown diverged: %+v vs %+v", st.name, st.p, st.r)
		}
	}
	if pr.RefineMerge.Writes() != 0 || pr.RefineMerge.Approx.Reads != 0 || pr.RefineMerge.Precise.Reads != 0 {
		t.Fatalf("parts RefineMerge breakdown not empty: %+v", pr.RefineMerge)
	}
	// The deferred merge saves exactly refine step 3's traffic.
	if saved := rr.RefineMerge.Writes(); saved != 2*len(keys)+rr.RemTilde {
		t.Fatalf("Run's RefineMerge writes = %d, want 2n+Rem~ = %d", saved, 2*len(keys)+rr.RemTilde)
	}
}

func TestRunPartsDeterministic(t *testing.T) {
	keys := dataset.Uniform(4000, 3)
	cfg := Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: 17}
	a, err := RunParts(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParts(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.LisKeys {
		if a.LisKeys[i] != b.LisKeys[i] || a.LisIDs[i] != b.LisIDs[i] {
			t.Fatalf("LIS diverged at %d between identical runs", i)
		}
	}
	for i := range a.RemKeys {
		if a.RemKeys[i] != b.RemKeys[i] || a.RemIDs[i] != b.RemIDs[i] {
			t.Fatalf("REM diverged at %d between identical runs", i)
		}
	}
}

func TestRunPartsEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		keys := dataset.Uniform(n, 9)
		parts, err := RunParts(keys, Config{Algorithm: sorts.LSD{Bits: 8}, NewSpace: mlcSpace(0.055), Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		merged, _ := mergeParts(parts)
		want := sortedCopy(keys)
		if len(merged) != len(want) {
			t.Fatalf("n=%d: merged length %d", n, len(merged))
		}
		for i := range want {
			if merged[i] != want[i] {
				t.Fatalf("n=%d: merged[%d] = %d, want %d", n, i, merged[i], want[i])
			}
		}
	}
}

func TestRunPartsValidatesConfig(t *testing.T) {
	if _, err := RunParts([]uint32{1, 2}, Config{}); err == nil {
		t.Fatal("expected config validation error")
	}
	if _, err := RunParts([]uint32{1, 2}, Config{Algorithm: sorts.Quicksort{}}); err == nil {
		t.Fatal("expected missing-space error")
	}
}

// TestRunPartsBaselineNeverRuns pins the SkipBaseline override: parts have
// no Equation 2 denominator, so the report's baseline must stay zero even
// when the caller forgets to skip it.
func TestRunPartsBaselineNeverRuns(t *testing.T) {
	keys := dataset.Uniform(1000, 2)
	parts, err := RunParts(keys, Config{Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: 4, SkipBaseline: false})
	if err != nil {
		t.Fatal(err)
	}
	if parts.Report.Baseline.Writes != 0 {
		t.Fatalf("baseline ran for a parts run: %+v", parts.Report.Baseline)
	}
}
