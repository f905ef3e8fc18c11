package sorts

import (
	"errors"
	"strings"
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/rng"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"lsd", "mergesort", "msd", "onesweep-lsd", "quicksort"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestUnknownAlgorithmError(t *testing.T) {
	_, err := New("bogosort", 0)
	var unk *UnknownAlgorithmError
	if !errors.As(err, &unk) {
		t.Fatalf("New(bogosort) error = %T %v, want *UnknownAlgorithmError", err, err)
	}
	if unk.Name != "bogosort" {
		t.Errorf("error carries name %q", unk.Name)
	}
	// The message must let a caller self-correct: every registered name is
	// listed, in sorted order.
	msg := err.Error()
	if !strings.Contains(msg, `"bogosort"`) {
		t.Errorf("message %q does not echo the unknown name", msg)
	}
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("message %q does not list %q", msg, name)
		}
	}
	if _, err := Lookup("bogosort"); !errors.As(err, &unk) {
		t.Errorf("Lookup error = %T, want *UnknownAlgorithmError", err)
	}
}

func TestNewAppliesDefaultBits(t *testing.T) {
	cases := []struct {
		name string
		bits int
		want string
	}{
		{"quicksort", 0, "Quicksort"},
		{"quicksort", 9, "Quicksort"}, // bits ignored for comparison sorts
		{"mergesort", 0, "Mergesort"},
		{"lsd", 0, "6-bit LSD"},
		{"lsd", 3, "3-bit LSD"},
		{"msd", 0, "6-bit MSD"},
		{"onesweep-lsd", 0, "8-bit OneSweep"},
		{"onesweep-lsd", 6, "6-bit OneSweep"},
	}
	for _, tc := range cases {
		alg, err := New(tc.name, tc.bits)
		if err != nil {
			t.Fatalf("New(%s, %d): %v", tc.name, tc.bits, err)
		}
		if alg.Name() != tc.want {
			t.Errorf("New(%s, %d).Name() = %q, want %q", tc.name, tc.bits, alg.Name(), tc.want)
		}
	}
}

func TestRoster(t *testing.T) {
	algs, err := Roster([]string{"quicksort", "onesweep-lsd"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs) != 2 || algs[0].Name() != "Quicksort" || algs[1].Name() != "8-bit OneSweep" {
		t.Errorf("Roster = %v", algs)
	}
	if _, err := Roster([]string{"quicksort", "nope"}, 0); err == nil {
		t.Error("Roster accepted an unknown name")
	}
}

func TestAutoCandidates(t *testing.T) {
	cands := AutoCandidates()
	want := []string{"lsd", "mergesort", "msd", "onesweep-lsd", "quicksort"}
	if len(cands) != len(want) {
		t.Fatalf("%d candidates, want %d", len(cands), len(want))
	}
	for i, c := range cands {
		// Sorted-name order is the planner's tie-break contract.
		if c.Name != want[i] {
			t.Errorf("candidate %d = %q, want %q", i, c.Name, want[i])
		}
		if c.Alg == nil {
			t.Fatalf("candidate %q has nil algorithm", c.Name)
		}
		if prof, ok := ProfileOf(c.Alg); !ok || prof.Alpha == nil {
			t.Errorf("auto candidate %q has no analytic α — the planner cannot cost it", c.Name)
		}
	}
}

func TestProfiles(t *testing.T) {
	const n = 1 << 12 // log2 = 12
	cases := []struct {
		alg         Algorithm
		perElem     float64
		exact       bool
		reorderable bool
	}{
		{Quicksort{}, 6, false, false},         // n·log2(n)/2
		{Mergesort{}, 12, false, false},        // n·log2(n)
		{LSD{Bits: 6}, 12, true, true},         // 2·6 passes
		{LSD{Bits: 8}, 8, true, true},          // 2·4 passes
		{MSD{Bits: 6}, 12, false, true},        // expectation only (insertion leaves)
		{OneSweepLSD{Bits: 8}, 8, true, true},  // 2·4 passes, even → in place
		{OneSweepLSD{Bits: 5}, 15, true, true}, // 2·7 passes + odd-count copy home
		{OneSweepLSD{Bits: 16}, 4, true, true}, // 2·2 passes
	}
	for _, tc := range cases {
		prof, ok := ProfileOf(tc.alg)
		if !ok {
			t.Fatalf("%s: no profile", tc.alg.Name())
		}
		if got := prof.WritesPerElement(n); got != tc.perElem {
			t.Errorf("%s: writes/element = %v, want %v", tc.alg.Name(), got, tc.perElem)
		}
		if prof.ExactWrites != tc.exact {
			t.Errorf("%s: ExactWrites = %v, want %v", tc.alg.Name(), prof.ExactWrites, tc.exact)
		}
		if prof.Reorderable != tc.reorderable {
			t.Errorf("%s: Reorderable = %v, want %v", tc.alg.Name(), prof.Reorderable, tc.reorderable)
		}
		if !prof.SortsIDs {
			t.Errorf("%s: SortsIDs = false", tc.alg.Name())
		}
	}
}

// approxRun sorts keys on approximate memory at a pinned (T, seed) and
// returns the stored output plus the key-space accounting — the full
// observable surface of a sort.
func approxRun(alg Algorithm, keys []uint32, t float64, seed uint64) ([]uint32, mem.Stats) {
	space := mem.NewApproxSpaceAt(t, seed)
	shadow := mem.NewPreciseSpace()
	p := Pair{Keys: space.Alloc(len(keys)), IDs: shadow.Alloc(len(keys))}
	mem.Load(p.Keys, keys)
	mem.Load(p.IDs, dataset.IDs(len(keys)))
	space.ResetStats()
	alg.Sort(p, Env{KeySpace: space, IDSpace: shadow, R: rng.New(seed ^ 0x9e3779b9)})
	return mem.PeekAll(p.Keys), space.Stats()
}

// TestRegistryDispatchParity pins the refactor's bit-identity contract:
// an algorithm resolved through the registry must reproduce the direct
// construction byte-for-byte — stored output AND accounting — at pinned
// seeds on approximate memory. Any registry-layer indirection that
// perturbed construction (a changed default width, an extra wrapper
// touching memory) fails here before it can drift a golden row.
func TestRegistryDispatchParity(t *testing.T) {
	cases := []struct {
		name   string
		bits   int
		direct Algorithm
	}{
		{"quicksort", 0, Quicksort{}},
		{"mergesort", 0, Mergesort{}},
		{"lsd", 6, LSD{Bits: 6}},
		{"lsd", 0, LSD{Bits: 6}},
		{"msd", 6, MSD{Bits: 6}},
		{"msd", 0, MSD{Bits: 6}},
		{"onesweep-lsd", 0, OneSweepLSD{Bits: 8}},
	}
	keys := dataset.Uniform(3000, 1729)
	for _, tc := range cases {
		reg, err := New(tc.name, tc.bits)
		if err != nil {
			t.Fatalf("New(%s, %d): %v", tc.name, tc.bits, err)
		}
		for _, T := range []float64{0.055, 0.105} {
			const seed = 42
			wantOut, wantStats := approxRun(tc.direct, keys, T, seed)
			gotOut, gotStats := approxRun(reg, keys, T, seed)
			if gotStats != wantStats {
				t.Errorf("%s/%d T=%v: registry stats %+v != direct %+v",
					tc.name, tc.bits, T, gotStats, wantStats)
			}
			for i := range wantOut {
				if gotOut[i] != wantOut[i] {
					t.Errorf("%s/%d T=%v: output diverges at %d: %d != %d",
						tc.name, tc.bits, T, i, gotOut[i], wantOut[i])
					break
				}
			}
		}
	}
}
