package histsort

import (
	"testing"
	"testing/quick"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
	"approxsort/internal/sorts"
)

func algorithms() []sorts.Algorithm {
	return []sorts.Algorithm{
		HistLSD{Bits: 3}, HistLSD{Bits: 4}, HistLSD{Bits: 6},
		HistMSD{Bits: 3}, HistMSD{Bits: 4}, HistMSD{Bits: 6},
	}
}

func runSort(alg sorts.Algorithm, keys []uint32, withIDs bool) ([]uint32, []uint32) {
	space := mem.NewPreciseSpace()
	env := sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(3)}
	p := sorts.Pair{Keys: space.Alloc(len(keys))}
	mem.Load(p.Keys, keys)
	if withIDs {
		p.IDs = space.Alloc(len(keys))
		mem.Load(p.IDs, dataset.IDs(len(keys)))
	}
	alg.Sort(p, env)
	var ids []uint32
	if withIDs {
		ids = mem.ReadAll(p.IDs)
	}
	return mem.ReadAll(p.Keys), ids
}

func TestHistSortsFixedInputs(t *testing.T) {
	inputs := map[string][]uint32{
		"empty":      {},
		"single":     {9},
		"sorted":     dataset.Sorted(200),
		"reverse":    dataset.Reverse(200),
		"uniform":    dataset.Uniform(777, 1),
		"duplicates": dataset.FewDistinct(500, 4, 2),
		"allsame":    dataset.FewDistinct(300, 1, 3),
		"extremes":   {0xffffffff, 0, 1, 0xfffffffe, 0},
	}
	for _, alg := range algorithms() {
		for name, keys := range inputs {
			got, _ := runSort(alg, keys, false)
			if !sortedness.IsSorted(got) {
				t.Errorf("%s on %s: not sorted", alg.Name(), name)
			}
			if !sortedness.SameMultiset(got, keys) {
				t.Errorf("%s on %s: not a permutation", alg.Name(), name)
			}
		}
	}
}

func TestHistSortsCarryIDs(t *testing.T) {
	keys := dataset.Uniform(600, 5)
	for _, alg := range algorithms() {
		gotKeys, gotIDs := runSort(alg, keys, true)
		if !sortedness.IsSorted(gotKeys) {
			t.Errorf("%s: keys not sorted", alg.Name())
			continue
		}
		seen := make([]bool, len(keys))
		for i, id := range gotIDs {
			if int(id) >= len(keys) || seen[id] || keys[id] != gotKeys[i] {
				t.Errorf("%s: ID integrity violated at %d", alg.Name(), i)
				break
			}
			seen[id] = true
		}
	}
}

func TestHistSortsQuick(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		f := func(keys []uint32) bool {
			if len(keys) > 250 {
				keys = keys[:250]
			}
			got, _ := runSort(alg, keys, false)
			return sortedness.IsSorted(got) && sortedness.SameMultiset(got, keys)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestHistSortIDs(t *testing.T) {
	keys := dataset.Uniform(400, 7)
	for _, alg := range algorithms() {
		space := mem.NewPreciseSpace()
		env := sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(9)}
		ids := space.Alloc(len(keys))
		mem.Load(ids, dataset.IDs(len(keys)))
		alg.SortIDs(ids, len(keys), func(id uint32) uint32 { return keys[id] }, env)
		got := mem.ReadAll(ids)
		prev := uint32(0)
		seen := make([]bool, len(keys))
		for i, id := range got {
			if seen[id] {
				t.Errorf("%s: SortIDs duplicated id", alg.Name())
				break
			}
			seen[id] = true
			if k := keys[id]; i > 0 && k < prev {
				t.Errorf("%s: SortIDs order violated at %d", alg.Name(), i)
				break
			} else {
				prev = k
			}
		}
	}
}

// TestHistogramHalvesWrites is the Appendix B mechanism itself: per pass,
// histogram LSD writes each key once where queue LSD writes twice.
func TestHistogramHalvesWrites(t *testing.T) {
	const n = 8192
	keys := dataset.Uniform(n, 11)
	measure := func(alg sorts.Algorithm) int {
		ks := mem.NewPreciseSpace()
		env := sorts.Env{KeySpace: ks, IDSpace: mem.NewPreciseSpace(), R: rng.New(13)}
		p := sorts.Pair{Keys: ks.Alloc(n)}
		mem.Load(p.Keys, keys)
		alg.Sort(p, env)
		return ks.Stats().Writes - n
	}
	hist := measure(HistLSD{Bits: 6})
	queue := measure(sorts.LSD{Bits: 6})
	if want := 6 * n; hist != want {
		t.Errorf("hist-LSD key writes = %d, want exactly %d (n per pass)", hist, want)
	}
	if queue != 2*hist {
		t.Errorf("queue LSD writes %d, want exactly 2× hist writes %d", queue, hist)
	}

	histM := measure(HistMSD{Bits: 6})
	queueM := measure(sorts.MSD{Bits: 6})
	if histM >= queueM {
		t.Errorf("hist-MSD writes %d not below queue MSD writes %d", histM, queueM)
	}
}

// TestHistApproxRefine is the Appendix B integration: the engine produces
// precise output with the histogram sorts on approximate memory.
func TestHistApproxRefine(t *testing.T) {
	keys := dataset.Uniform(10000, 17)
	for _, alg := range []sorts.Algorithm{HistLSD{Bits: 6}, HistMSD{Bits: 6}} {
		res, err := core.Run(keys, core.Config{
			Algorithm: alg,
			NewSpace:  func(s uint64) core.Space { return mem.NewApproxSpaceAt(0.055, s) },
			Seed:      19,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.Report.Sorted {
			t.Errorf("%s: output not sorted", alg.Name())
		}
		prev := uint32(0)
		for i, k := range res.Keys {
			if i > 0 && k < prev {
				t.Fatalf("%s: unsorted at %d", alg.Name(), i)
			}
			prev = k
		}
	}
}

func TestRadixPassesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("radixPasses(0) did not panic")
		}
	}()
	radixPasses(0)
}

func TestHistSortsOnApproxMemoryTerminate(t *testing.T) {
	for _, alg := range algorithms() {
		approx := mem.NewApproxSpaceAt(0.12, 21)
		precise := mem.NewPreciseSpace()
		env := sorts.Env{KeySpace: approx, IDSpace: precise, R: rng.New(23)}
		p := sorts.Pair{Keys: approx.Alloc(1500), IDs: precise.Alloc(1500)}
		mem.Load(p.Keys, dataset.Uniform(1500, 25))
		mem.Load(p.IDs, dataset.IDs(1500))
		alg.Sort(p, env)
		ids := mem.ReadAll(p.IDs)
		seen := make([]bool, len(ids))
		for _, id := range ids {
			if int(id) >= len(ids) || seen[id] {
				t.Errorf("%s: ID permutation broken on approx memory", alg.Name())
				break
			}
			seen[id] = true
		}
	}
}
