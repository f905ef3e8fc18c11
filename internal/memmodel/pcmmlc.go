package memmodel

import (
	"fmt"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
)

// PCMMLC is the registry name of the MLC PCM backend (Table 2, the
// paper's main-body device model).
const PCMMLC = "pcm-mlc"

// mlcBackend adapts internal/mem + internal/mlc to the Backend seam. Its
// single parameter is the target half-width T; the transition table at a
// given T comes from the shared mlc table cache under the fixed
// calibration seed, so a sweep touching K T-points calibrates K tables
// no matter how many grid cells or jobs share them.
type mlcBackend struct{}

func init() { Register(mlcBackend{}) }

func (mlcBackend) Name() string { return PCMMLC }

func (mlcBackend) Params() []ParamSpec {
	return []ParamSpec{{
		Name:         "t",
		Doc:          "target resistance half-width T; larger is more approximate",
		Default:      0.055, // the Figure 9 sweet spot
		Min:          0,
		MinExclusive: true,
		Max:          mlc.MaxT,
		Seed:         true,
	}}
}

// MLC returns the pcm-mlc point at target half-width t.
func MLC(t float64) Point {
	return Point{Backend: PCMMLC, Params: map[string]float64{"t": t}}
}

func (b mlcBackend) DefaultPoint() Point {
	pt, err := b.Normalize(Point{Backend: PCMMLC})
	if err != nil {
		panic(err) // unreachable: the default is in range
	}
	return pt
}

func (b mlcBackend) Normalize(pt Point) (Point, error) {
	return normalizeAgainst(b, pt)
}

// t extracts the half-width from a normalized point.
func (mlcBackend) t(pt Point) float64 {
	v, ok := pt.Param("t")
	if !ok {
		panic(fmt.Sprintf("memmodel: %v is not normalized (missing t)", pt))
	}
	return v
}

func (b mlcBackend) NewApprox(pt Point, seed uint64) Space {
	return mem.NewApproxSpaceAt(b.t(pt), seed)
}

func (mlcBackend) NewPrecise() Space { return mem.NewPreciseSpace() }

func (b mlcBackend) SeedCoords(pt Point) []any { return []any{b.t(pt)} }

// SortOnlySeeds reproduces the Section 3 study's original derivation —
// the space consumes the point seed directly, the sort stream a fixed
// XOR of it — pinned by the Figure 4 golden rows.
func (mlcBackend) SortOnlySeeds(pointSeed uint64) (uint64, uint64) {
	return pointSeed, pointSeed ^ 0xabcd
}

func (mlcBackend) Identities(Point) Identities {
	return Identities{EnergyTracksLatency: true, PulsesPerWrite: mlc.Precise().CellsPerWord()}
}

func (b mlcBackend) ApproxWriteNanos(pt Point) float64 {
	table := mlc.CachedTable(mlc.Approximate(b.t(pt)), 0, mlc.CalibrationSeed)
	return table.AvgWriteNanos()
}

// normalizeAgainst is the shared schema-driven Normalize implementation:
// unknown parameters are rejected, absent ones defaulted, and every value
// checked against its spec's range.
func normalizeAgainst(b Backend, pt Point) (Point, error) {
	if pt.Backend != "" && pt.Backend != b.Name() {
		return Point{}, fmt.Errorf("memmodel: point names backend %q, want %q", pt.Backend, b.Name())
	}
	specs := b.Params()
	known := make(map[string]bool, len(specs))
	for _, spec := range specs {
		known[spec.Name] = true
	}
	for name := range pt.Params {
		if !known[name] {
			return Point{}, fmt.Errorf("memmodel: %s: unknown parameter %q", b.Name(), name)
		}
	}
	out := pt.clone()
	out.Backend = b.Name()
	for _, spec := range specs {
		v, ok := out.Params[spec.Name]
		if !ok {
			v = spec.Default
			out.Params[spec.Name] = v
		}
		// Written as !(in range) so that NaN, which fails every
		// comparison, is rejected too.
		if !(v >= spec.Min && v <= spec.Max) || (spec.MinExclusive && v == spec.Min) { //nolint:floatord // range check on a configured parameter, not an accumulated sum
			open := "["
			if spec.MinExclusive {
				open = "("
			}
			return Point{}, fmt.Errorf("memmodel: %s: %s = %v out of %s%v, %v]",
				b.Name(), spec.Name, v, open, spec.Min, spec.Max)
		}
	}
	return out, nil
}

// SplitPoint keys a grid cell's RNG stream by its coordinates: the
// algorithm name followed by the backend's seed-bearing parameters. It is
// the single seed-derivation rule behind every backend sweep (formerly
// duplicated as inline rng.Split calls and the spin pipeline's splitSpin
// helper), pinned bit-identically by the golden gate.
func SplitPoint(seed uint64, algName string, b Backend, pt Point) uint64 {
	coords := append([]any{algName}, b.SeedCoords(pt)...)
	return rng.Split(seed, coords...)
}
