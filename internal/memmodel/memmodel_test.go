package memmodel

import (
	"errors"
	"math"
	"strings"
	"testing"

	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/spintronic"
)

func TestRegistryHasBothPaperBackends(t *testing.T) {
	names := Names()
	for _, want := range []string{PCMMLC, SpintronicName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry %v missing %q", names, want)
		}
	}
}

func TestGetEmptyNameResolvesToDefault(t *testing.T) {
	b, err := Get("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != DefaultName || b.Name() != PCMMLC {
		t.Errorf("Get(\"\") = %q, want %q", b.Name(), PCMMLC)
	}
}

func TestGetUnknownBackendTypedError(t *testing.T) {
	_, err := Get("memristor")
	if err == nil {
		t.Fatal("Get(memristor) succeeded")
	}
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %T is not *UnknownBackendError", err)
	}
	if unknown.Name != "memristor" {
		t.Errorf("unknown.Name = %q", unknown.Name)
	}
	// The message must list the registered names, so a typo'd request is
	// self-diagnosing at the API boundary.
	for _, want := range []string{"memristor", PCMMLC, SpintronicName} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestMLCNormalizeDefaultsAndBounds(t *testing.T) {
	b := MustGet(PCMMLC)

	pt, err := b.Normalize(Point{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Backend != PCMMLC {
		t.Errorf("normalized backend = %q", pt.Backend)
	}
	if v, ok := pt.Param("t"); !ok || v != 0.055 {
		t.Errorf("default t = %v (ok=%v), want the 0.055 sweet spot", v, ok)
	}
	if got := b.DefaultPoint(); got.Params["t"] != 0.055 {
		t.Errorf("DefaultPoint t = %v", got.Params["t"])
	}

	for _, bad := range []Point{
		MLC(0),            // T strictly positive (open lower bound)
		MLC(-0.01),        // negative
		MLC(mlc.MaxT + 1), // above the model's ceiling
		{Backend: PCMMLC, Params: map[string]float64{"saving": 0.3}}, // foreign parameter
		{Backend: SpintronicName},                                    // point names another backend
	} {
		if _, err := b.Normalize(bad); err == nil {
			t.Errorf("Normalize(%v) accepted", bad)
		}
	}
}

func TestNormalizeDoesNotMutateCallerPoint(t *testing.T) {
	b := MustGet(SpintronicName)
	in := Point{Backend: SpintronicName, Params: map[string]float64{"saving": 0.2}}
	out, err := b.Normalize(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Params) != 1 {
		t.Errorf("Normalize mutated the caller's map: %v", in.Params)
	}
	if _, ok := out.Param("bit_error_prob"); !ok {
		t.Error("normalized point missing defaulted bit_error_prob")
	}
}

func TestSpintronicNormalizeBounds(t *testing.T) {
	b := MustGet(SpintronicName)
	if _, err := b.Normalize(Point{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	cases := []Point{
		{Backend: SpintronicName, Params: map[string]float64{"saving": 1}},
		{Backend: SpintronicName, Params: map[string]float64{"saving": -0.1}},
		{Backend: SpintronicName, Params: map[string]float64{"bit_error_prob": 0.6}},
		{Backend: SpintronicName, Params: map[string]float64{"read_bit_error_prob": -0.1}},
		{Backend: SpintronicName, Params: map[string]float64{"t": 0.055}}, // MLC's parameter
	}
	for _, bad := range cases {
		if _, err := b.Normalize(bad); err == nil {
			t.Errorf("Normalize(%v) accepted", bad)
		}
	}
}

// TestSortOnlySeedsPinned pins each backend's sort-only seed schedule:
// these reproduce the pre-seam pipelines' derivations and back the golden
// regression grid, so they must never change for a registered backend.
func TestSortOnlySeedsPinned(t *testing.T) {
	const ps = 0xfeedbeef
	if space, sortSeed := MustGet(PCMMLC).SortOnlySeeds(ps); space != ps || sortSeed != ps^0xabcd {
		t.Errorf("pcm-mlc seeds = (%#x, %#x), want (%#x, %#x)", space, sortSeed, uint64(ps), uint64(ps^0xabcd))
	}
	wantSpace, wantSort := rng.Split(ps, "space"), rng.Split(ps, "sort")
	if space, sortSeed := MustGet(SpintronicName).SortOnlySeeds(ps); space != wantSpace || sortSeed != wantSort {
		t.Errorf("spintronic seeds = (%#x, %#x), want (%#x, %#x)", space, sortSeed, wantSpace, wantSort)
	}
}

// TestSplitPointMatchesLegacyDerivations asserts the unified grid seed
// rule is bit-identical to the two derivations it replaced: the inline
// rng.Split(seed, alg, t) of the MLC sweeps and the splitSpin helper of
// the spintronic pipeline.
func TestSplitPointMatchesLegacyDerivations(t *testing.T) {
	const seed, alg = 1729, "6-bit MSD"

	mlcB := MustGet(PCMMLC)
	pt, err := mlcB.Normalize(MLC(0.055))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SplitPoint(seed, alg, mlcB, pt), rng.Split(seed, alg, 0.055); got != want {
		t.Errorf("pcm-mlc SplitPoint = %#x, legacy = %#x", got, want)
	}

	spinB := MustGet(SpintronicName)
	cfg := spintronic.Config{Saving: 0.33, BitErrorProb: 1e-5}
	spt, err := spinB.Normalize(Spintronic(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SplitPoint(seed, alg, spinB, spt), rng.Split(seed, alg, cfg.Saving, cfg.BitErrorProb); got != want {
		t.Errorf("spintronic SplitPoint = %#x, legacy splitSpin = %#x", got, want)
	}
	// read_bit_error_prob postdates the pinned goldens, so it must stay
	// out of the seed derivation.
	withRead, err := spinB.Normalize(Spintronic(spintronic.Config{Saving: 0.33, BitErrorProb: 1e-5, ReadBitErrorProb: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SplitPoint(seed, alg, spinB, withRead), rng.Split(seed, alg, cfg.Saving, cfg.BitErrorProb); got != want {
		t.Errorf("read_bit_error_prob leaked into the seed derivation: %#x != %#x", got, want)
	}
}

func TestIdentitiesPerBackend(t *testing.T) {
	id := MustGet(PCMMLC).Identities(Point{})
	if !id.EnergyTracksLatency || id.PulsesPerWrite != 16 || id.FixedWriteLatency || id.EnergyPerWrite != 0 {
		t.Errorf("pcm-mlc identities = %+v", id)
	}
	b := MustGet(SpintronicName)
	pt, err := b.Normalize(Spintronic(spintronic.Config{Saving: 0.33, BitErrorProb: 1e-5}))
	if err != nil {
		t.Fatal(err)
	}
	id = b.Identities(pt)
	if !id.FixedWriteLatency || id.EnergyTracksLatency || id.PulsesPerWrite != 0 {
		t.Errorf("spintronic identities = %+v", id)
	}
	saving := 0.33
	if want := 1 - saving; id.EnergyPerWrite != want {
		t.Errorf("spintronic EnergyPerWrite = %v, want %v", id.EnergyPerWrite, want)
	}
}

func TestApproxWriteNanos(t *testing.T) {
	b := MustGet(PCMMLC)
	pt, err := b.Normalize(MLC(0.055))
	if err != nil {
		t.Fatal(err)
	}
	table := mlc.CachedTable(mlc.Approximate(0.055), 0, mlc.CalibrationSeed)
	if got, want := b.ApproxWriteNanos(pt), table.AvgWriteNanos(); got != want {
		t.Errorf("pcm-mlc ApproxWriteNanos = %v, want %v", got, want)
	}
	if got := MustGet(SpintronicName).ApproxWriteNanos(Point{}); got != mlc.PreciseWriteNanos {
		t.Errorf("spintronic ApproxWriteNanos = %v, want precise latency %v", got, mlc.PreciseWriteNanos)
	}
}

func TestPointString(t *testing.T) {
	if got := MLC(0.07).String(); got != "pcm-mlc(t=0.07)" {
		t.Errorf("MLC point string = %q", got)
	}
	pt := Spintronic(spintronic.Config{Saving: 0.2, BitErrorProb: 1e-6})
	if got := pt.String(); got != "spintronic(saving=0.2,bit_error_prob=1e-06)" {
		t.Errorf("spintronic point string = %q", got)
	}
}

func TestSpintronicPresetsMatchAppendix(t *testing.T) {
	pts := SpintronicPresets()
	if len(pts) != 4 {
		t.Fatalf("presets = %d points, want 4", len(pts))
	}
	cfgs := spintronic.Presets()
	for i, pt := range pts {
		if s, _ := pt.Param("saving"); s != cfgs[i].Saving {
			t.Errorf("preset %d saving = %v, want %v", i, s, cfgs[i].Saving)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(mlcBackend{})
}

// TestResolveRejectsNaN feeds every registered backend a NaN t and, one
// parameter at a time, a NaN params value: each must fail to resolve,
// because NaN lies in no parameter's range.
func TestResolveRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, name := range Names() {
		if _, _, _, err := Resolve(name, nil, nan); err == nil {
			t.Errorf("%s: t = NaN resolved", name)
		}
		for _, spec := range MustGet(name).Params() {
			if _, pt, _, err := Resolve(name, map[string]float64{spec.Name: nan}, 0); err == nil {
				t.Errorf("%s: params.%s = NaN resolved to %v", name, spec.Name, pt)
			}
		}
	}
}
