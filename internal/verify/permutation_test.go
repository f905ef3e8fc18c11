package verify

import (
	"slices"
	"testing"

	"approxsort/internal/rng"
	"approxsort/internal/sortedness"
)

// TestIsPermutationMatchesMultiset holds the sort-based not-permutation
// verdict to the counting-map predicate it replaced, on every shape of
// pair the checker sees: independent random pairs, shuffles of the input,
// duplicate-heavy inputs, outputs whose multiplicities differ from the
// input's by one, length mismatches, and sorted as well as unsorted
// outputs.
func TestIsPermutationMatchesMultiset(t *testing.T) {
	r := rng.New(21)
	draw := func(n, distinct int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(r.Intn(distinct))
		}
		return out
	}
	shuffled := func(a []uint32) []uint32 {
		b := slices.Clone(a)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return b
	}
	// bumped moves one occurrence of a value to another value already
	// present (or a fresh one), so one multiplicity drops by one and
	// another rises by one at the same length.
	bumped := func(a []uint32) []uint32 {
		b := shuffled(a)
		if len(b) > 0 {
			b[r.Intn(len(b))] = a[r.Intn(len(a))] + uint32(r.Intn(2))
		}
		return b
	}
	var verdicts [2]int
	for trial := 0; trial < 3000; trial++ {
		n := r.Intn(40)
		distinct := 1 + r.Intn(8)
		if trial%3 == 0 {
			distinct = 1 << 30 // mostly distinct keys
		}
		a := draw(n, distinct)
		var b []uint32
		switch trial % 6 {
		case 0:
			b = draw(n, distinct) // independent random pair
		case 1:
			b = shuffled(a)
		case 2:
			b = bumped(a)
		case 3:
			b = append(shuffled(a), a[:min(n, 1)]...) // one extra copy
		case 4:
			if n > 0 {
				b = shuffled(a)[1:] // one copy short
			}
		case 5:
			b = draw(r.Intn(40), distinct) // any length
		}
		if r.Intn(2) == 0 {
			slices.Sort(b) // a sorted output takes the no-copy path
		}
		want := sortedness.SameMultiset(a, b)
		got := isPermutation(ReferenceSort(a), b, sortedness.IsSorted(b))
		if got != want {
			t.Fatalf("trial %d: isPermutation(%v, %v) = %v, SameMultiset = %v", trial, a, b, got, want)
		}
		if got {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] < 500 || verdicts[1] < 500 {
		t.Fatalf("verdict mix %v: both outcomes must be well exercised", verdicts)
	}
}
