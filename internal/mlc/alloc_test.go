package mlc

import (
	"testing"

	"approxsort/internal/rng"
)

// TestWriteWordAllocFree pins the dense sampler's zero-allocation
// contract: a word write draws from prebuilt threshold tables and the
// caller's RNG, nothing else (see DESIGN.md §13). It covers the public
// per-word and batch entry points and both register-state helpers under
// them.
func TestWriteWordAllocFree(t *testing.T) {
	tab := CachedTable(Approximate(0.055), 0, CalibrationSeed)
	r := rng.New(1)
	i := uint32(0)
	if got := testing.AllocsPerRun(100, func() {
		_, _ = tab.WriteWord(r, i*2654435761)
		i++
	}); got != 0 {
		t.Errorf("WriteWord: %v allocs per write, want 0", got)
	}
	s0, s1, s2, s3 := r.State()
	if got := testing.AllocsPerRun(100, func() {
		_, _, s0, s1, s2, s3 = tab.writeWord(i*2654435761, s0, s1, s2, s3)
		i++
	}); got != 0 {
		t.Errorf("writeWord: %v allocs per word, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		_, _, s0, s1, s2, s3 = tab.writeWord4(i*2654435761, s0, s1, s2, s3)
		i++
	}); got != 0 {
		t.Errorf("writeWord4: %v allocs per word, want 0", got)
	}
	src := make([]uint32, 256)
	for j := range src {
		src[j] = uint32(j) * 2654435761
	}
	dst := make([]uint32, 256)
	if got := testing.AllocsPerRun(20, func() {
		_ = tab.WriteWords(r, dst, src)
	}); got != 0 {
		t.Errorf("WriteWords: %v allocs per batch, want 0", got)
	}
}
