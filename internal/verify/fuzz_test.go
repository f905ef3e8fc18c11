package verify

// Native Go fuzz targets routing arbitrary inputs through the invariant
// checker. CI runs each for a short smoke budget (-fuzztime 30s);
// discovered interesting inputs live under testdata/fuzz/ and replay as
// ordinary subtests in every `go test` run.

import (
	"encoding/binary"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/sorts"
)

// fuzzMaxKeys caps the decoded input size so each fuzz iteration stays
// milliseconds-scale and the 30s smoke budget explores many shapes.
const fuzzMaxKeys = 1024

func keysFromBytes(data []byte) []uint32 {
	n := len(data) / 4
	if n > fuzzMaxKeys {
		n = fuzzMaxKeys
	}
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return keys
}

// fuzzAlg decodes an algorithm from the selector's low bits and a
// half-width T from the next bits, covering the paper's roster × the
// Table 3 grid.
func fuzzAlg(sel byte) (sorts.Algorithm, float64) {
	var alg sorts.Algorithm
	switch sel % 4 {
	case 0:
		alg = sorts.Quicksort{}
	case 1:
		alg = sorts.Mergesort{}
	case 2:
		alg = sorts.LSD{Bits: 4}
	default:
		alg = sorts.MSD{Bits: 6}
	}
	ts := []float64{0.03, 0.055, 0.1}
	return alg, ts[int(sel/4)%len(ts)]
}

// seedBytes returns a small deterministic key blob for the seed corpus.
func seedBytes(n int, mul uint32) []byte {
	b := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(i)*mul+1)
	}
	return b
}

// FuzzApproxRefine drives the full approx-refine pipeline over arbitrary
// keys and checks every invariant on the result.
func FuzzApproxRefine(f *testing.F) {
	f.Add(uint64(1), byte(0), seedBytes(64, 2654435761))
	f.Add(uint64(7), byte(3), seedBytes(3, 0)) // duplicate-only keys
	f.Add(uint64(9), byte(10), []byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, sel byte, data []byte) {
		keys := keysFromBytes(data)
		if len(keys) == 0 {
			t.Skip()
		}
		alg, tv := fuzzAlg(sel)
		res, err := core.Run(keys, core.Config{
			Algorithm:         alg,
			T:                 tv,
			Seed:              seed,
			MeasureSortedness: len(keys) <= 512,
		})
		if err != nil {
			t.Fatalf("core.Run(%s, T=%g, n=%d): %v", alg.Name(), tv, len(keys), err)
		}
		if rep := Check(keys, res); !rep.OK() {
			t.Fatalf("%s T=%g n=%d seed=%d: %v", alg.Name(), tv, len(keys), seed, rep.Violations)
		}
	})
}

// FuzzPlanner drives the Section 4.3 switch decision over arbitrary keys
// and pilot sizes; every verdict must be finite and in range (service
// inputs hit this path on every auto-mode request).
func FuzzPlanner(f *testing.F) {
	f.Add(uint64(1), byte(0), uint16(0), seedBytes(64, 2654435761))
	f.Add(uint64(3), byte(5), uint16(4096), seedBytes(2, 1))
	f.Add(uint64(5), byte(2), uint16(1), seedBytes(100, 0))
	f.Fuzz(func(t *testing.T, seed uint64, sel byte, pilot uint16, data []byte) {
		keys := keysFromBytes(data)
		if len(keys) == 0 {
			t.Skip()
		}
		alg, tv := fuzzAlg(sel)
		plan, err := core.Planner{
			Config:    core.Config{T: tv, Seed: seed},
			PilotSize: int(pilot),
		}.Plan(keys, core.InMemory{}, []sorts.Candidate{{Alg: alg}})
		if err != nil {
			t.Fatalf("Plan(%s, T=%g, n=%d, pilot=%d): %v", alg.Name(), tv, len(keys), pilot, err)
		}
		if rep := CheckPlan(len(keys), plan); !rep.OK() {
			t.Fatalf("%s T=%g n=%d pilot=%d: %+v: %v", alg.Name(), tv, len(keys), pilot, plan, rep.Violations)
		}
	})
}

// FuzzRefineBound focuses the refine stage's write-budget identities,
// toggling between the heuristic and the exact-LIS ablation so both find
// paths stay under guard.
func FuzzRefineBound(f *testing.F) {
	f.Add(uint64(1), byte(0), seedBytes(64, 2654435761))
	f.Add(uint64(2), byte(0x83), seedBytes(64, 3))    // exact-LIS path
	f.Add(uint64(4), byte(0x80), seedBytes(5, 1<<30)) // exact-LIS, coarse keys
	f.Fuzz(func(t *testing.T, seed uint64, sel byte, data []byte) {
		keys := keysFromBytes(data)
		if len(keys) == 0 {
			t.Skip()
		}
		alg, tv := fuzzAlg(sel & 0x7f)
		res, err := core.Run(keys, core.Config{
			Algorithm:         alg,
			T:                 tv,
			Seed:              seed,
			ExactLIS:          sel&0x80 != 0,
			MeasureSortedness: true,
			SkipBaseline:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep := Check(keys, res); !rep.OK() {
			t.Fatalf("exactLIS=%v: %v", sel&0x80 != 0, rep.Violations)
		}
		// Belt and braces on the Equation 4 refine budget itself.
		r := res.Report
		if !r.ExactLIS {
			data := r.RefineFind.Precise.Writes + r.RefineMerge.Precise.Writes
			if want := 2*r.N + 2*r.RemTilde; len(keys) >= 2 && data != want {
				t.Fatalf("refine data writes %d, want %d", data, want)
			}
		}
	})
}
