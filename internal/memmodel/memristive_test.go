package memmodel

import (
	"strings"
	"testing"

	"approxsort/internal/memristive"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

func TestMemristiveRegistered(t *testing.T) {
	b := MustGet(MemristiveName)
	if b.Name() != MemristiveName {
		t.Fatalf("Name() = %q, want %q", b.Name(), MemristiveName)
	}
	specs := b.Params()
	if len(specs) != 2 || specs[0].Name != "current_scale" || specs[1].Name != "switch_fail_prob" {
		t.Fatalf("Params() = %+v, want current_scale then switch_fail_prob", specs)
	}
	for _, s := range specs {
		if !s.Seed {
			t.Errorf("param %q must be Seed-flagged: both shape the noise stream", s.Name)
		}
	}
}

func TestMemristiveNormalize(t *testing.T) {
	b := MustGet(MemristiveName)
	pt := b.DefaultPoint()
	scale, _ := pt.Param("current_scale")
	fail, _ := pt.Param("switch_fail_prob")
	if scale != 0.7 || fail != 1e-5 {
		t.Fatalf("DefaultPoint = (%v, %v), want (0.7, 1e-5)", scale, fail)
	}

	got, err := b.Normalize(Memristive(memristive.Config{CurrentScale: 0.5, SwitchFailProb: 1e-4}))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.Param("current_scale"); s != 0.5 {
		t.Errorf("normalized current_scale = %v, want 0.5", s)
	}

	for _, bad := range []Point{
		{Backend: MemristiveName, Params: map[string]float64{"current_scale": 0}},
		{Backend: MemristiveName, Params: map[string]float64{"current_scale": 1.5}},
		{Backend: MemristiveName, Params: map[string]float64{"switch_fail_prob": 0.9}},
		{Backend: MemristiveName, Params: map[string]float64{"t": 0.055}},
	} {
		if _, err := b.Normalize(bad); err == nil {
			t.Errorf("Normalize(%v) accepted an out-of-schema point", bad)
		}
	}
}

func TestMemristiveIdentities(t *testing.T) {
	b := MustGet(MemristiveName)
	pt, err := b.Normalize(Memristive(memristive.Config{CurrentScale: 0.6, SwitchFailProb: 1e-5}))
	if err != nil {
		t.Fatal(err)
	}
	id := b.Identities(pt)
	if !id.FixedWriteLatency || id.EnergyTracksLatency || id.PulsesPerWrite != 0 {
		t.Errorf("memristive identities = %+v, want fixed-latency only", id)
	}
	if id.EnergyPerWrite != 0.6 {
		t.Errorf("EnergyPerWrite = %v, want the current_scale 0.6", id.EnergyPerWrite)
	}
	if id.ReadNanosPerRead != memristive.ReadNanos {
		t.Errorf("ReadNanosPerRead = %v, want the ReRAM read latency %v", id.ReadNanosPerRead, memristive.ReadNanos)
	}
	if got := b.ApproxWriteNanos(pt); got != mlc.PreciseWriteNanos {
		t.Errorf("ApproxWriteNanos = %v, want the precise latency %v", got, mlc.PreciseWriteNanos)
	}
}

// TestMemristiveSeedCoords pins the grid-cell RNG derivation: exactly
// the Seed-flagged parameters in schema order, so golden rows survive
// any future non-seed parameter additions.
func TestMemristiveSeedCoords(t *testing.T) {
	b := MustGet(MemristiveName)
	pt := b.DefaultPoint()
	coords := b.SeedCoords(pt)
	if len(coords) != 2 || coords[0] != 0.7 || coords[1] != 1e-5 {
		t.Fatalf("SeedCoords = %v, want [0.7 1e-5]", coords)
	}
	space, sort := b.SortOnlySeeds(99)
	if space != rng.Split(99, "space") || sort != rng.Split(99, "sort") {
		t.Errorf("SortOnlySeeds must use the labelled space/sort splits")
	}
}

func TestMemristiveSpaces(t *testing.T) {
	b := MustGet(MemristiveName)
	pt := b.DefaultPoint()
	approx := b.NewApprox(pt, 7)
	if !approx.Approximate() {
		t.Error("NewApprox space must report Approximate")
	}
	if ms, ok := approx.(*memristive.Space); !ok {
		t.Errorf("NewApprox returned %T, want the concrete *memristive.Space (devirtualized inner loops)", approx)
	} else if ms.Config().CurrentScale != 0.7 {
		t.Errorf("space built at CurrentScale %v, want the point's 0.7", ms.Config().CurrentScale)
	}
	if precise := b.NewPrecise(); precise.Approximate() {
		t.Error("NewPrecise space must not be approximate")
	}
}

func TestMemristivePresets(t *testing.T) {
	pts := MemristivePresets()
	if len(pts) != len(memristive.Presets()) {
		t.Fatalf("MemristivePresets returned %d points, want %d", len(pts), len(memristive.Presets()))
	}
	b := MustGet(MemristiveName)
	for i, pt := range pts {
		if pt.Backend != MemristiveName {
			t.Errorf("preset %d backend = %q", i, pt.Backend)
		}
		if _, err := b.Normalize(pt); err != nil {
			t.Errorf("preset %d does not normalize: %v", i, err)
		}
	}
	if !strings.Contains(pts[1].String(), "current_scale=0.7") {
		t.Errorf("default preset string = %q, want current_scale=0.7 in it", pts[1].String())
	}
}
