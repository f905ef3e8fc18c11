package verify

import (
	"fmt"
	"slices"
)

// ReferenceSort returns the plain precise sort of input — the differential
// oracle every verified run is diffed against. It uses the Go standard
// library, deliberately sharing no code with internal/sorts: a bug in the
// instrumented algorithms or the refine pipeline cannot also hide here.
func ReferenceSort(input []uint32) []uint32 {
	out := make([]uint32, len(input))
	copy(out, input)
	slices.Sort(out)
	return out
}

// Diff describes the first divergence between an expected and an actual
// key sequence, plus the total mismatch count.
type Diff struct {
	// Index is the first position where the sequences differ.
	Index int
	// Want and Got are the values at Index.
	Want, Got uint32
	// Mismatches counts every differing position.
	Mismatches int
}

// String implements fmt.Stringer.
func (d *Diff) String() string {
	return fmt.Sprintf("first divergence at [%d]: want %d, got %d (%d positions differ)",
		d.Index, d.Want, d.Got, d.Mismatches)
}

// DiffKeys compares got against want elementwise and returns nil when they
// are identical. Lengths must already match (the checkers guard that); a length
// mismatch is reported as a diff at the shorter length.
func DiffKeys(want, got []uint32) *Diff {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	var d *Diff
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			if d == nil {
				d = &Diff{Index: i, Want: want[i], Got: got[i]}
			}
			d.Mismatches++
		}
	}
	if len(want) != len(got) {
		if d == nil {
			d = &Diff{Index: n}
		}
		d.Mismatches += len(want) + len(got) - 2*n
	}
	return d
}
