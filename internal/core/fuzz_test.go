package core

import (
	"encoding/binary"
	"testing"

	"approxsort/internal/sorts"
)

// FuzzRefinePrecision feeds arbitrary byte strings through the whole
// approx-refine pipeline at an aggressive precision and asserts the
// precision contract: the output is always the exact sorted multiset of
// the input with a valid ID permutation. Run `go test -fuzz
// FuzzRefinePrecision ./internal/core` for an open-ended session; the
// seed corpus runs in every ordinary `go test`.
func FuzzRefinePrecision(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, algPick uint8) {
		n := len(data) / 4
		if n > 2000 {
			n = 2000
		}
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(data[i*4:])
		}
		var alg sorts.Algorithm
		switch algPick % 4 {
		case 0:
			alg = sorts.Quicksort{}
		case 1:
			alg = sorts.Mergesort{}
		case 2:
			alg = sorts.LSD{Bits: 5}
		default:
			alg = sorts.MSD{Bits: 4}
		}
		res, err := Run(keys, Config{
			Algorithm:    alg,
			NewSpace:     mlcSpace(0.1),
			Seed:         uint64(algPick) + uint64(n),
			SkipBaseline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Report.Sorted {
			t.Fatal("report claims unsorted output")
		}
		seen := make([]bool, n)
		prev := uint32(0)
		for i, k := range res.Keys {
			if i > 0 && k < prev {
				t.Fatalf("output unsorted at %d", i)
			}
			prev = k
			id := res.IDs[i]
			if int(id) >= n || seen[id] {
				t.Fatalf("ID permutation broken at %d", i)
			}
			seen[id] = true
			if keys[id] != k {
				t.Fatalf("key detached from record at %d", i)
			}
		}
	})
}
