package hybrid

import (
	"testing"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
)

// TestNewAllocations pins the construction cost of a system: the flat
// tag stores and one backing array for every bank's write ring, not one
// slice per cache set.
func TestNewAllocations(t *testing.T) {
	if got := testing.AllocsPerRun(5, func() { New() }); got > 16 {
		t.Errorf("New() made %v allocations, want <= 16", got)
	}
}

// TestRegionAccessAllocations pins the steady-state sink at zero
// allocations per access, on every path: L1 MRU hits, deeper hits,
// memory reads, and writes that stall on a full queue.
func TestRegionAccessAllocations(t *testing.T) {
	sys := New()
	r := sys.Region("precise", mlc.PreciseWriteNanos)
	var addr uint64
	step := func() {
		addr = (addr + 4099*64) % (64 << 20)
		r.Access(mem.OpRead, addr, 4)
		r.Access(mem.OpRead, addr, 4)
		r.Access(mem.OpWrite, addr, 4)
		r.Access(mem.OpWrite, 0, 4)
	}
	for i := 0; i < 100000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(10000, step); got != 0 {
		t.Errorf("Region.Access made %v allocations per step, want 0", got)
	}
	if st := sys.Stats(); st.L1Hits == 0 || st.MemReads == 0 || st.Device.WriteQueueFullEvents == 0 {
		t.Errorf("stream misses a path: %+v", st)
	}
}
