package hybrid

import (
	"strings"
	"testing"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
)

// TestStatsCheckCleanRun drives a real access stream through the system
// and asserts the snapshot reconciles.
func TestStatsCheckCleanRun(t *testing.T) {
	sys := New()
	region := sys.Region("precise", mlc.PreciseWriteNanos)
	space := mem.NewPreciseSpace()
	space.SetSink(region)
	w := space.Alloc(4096)
	for i := 0; i < w.Len(); i++ {
		w.Set(i, uint32(i*2654435761))
	}
	sum := uint32(0)
	for i := 0; i < w.Len(); i++ {
		sum += w.Get(i)
	}
	_ = sum
	sys.AdvanceClock(1e4)
	if err := sys.Stats().Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCheckFiresOnInconsistentSnapshot(t *testing.T) {
	sys := New()
	region := sys.Region("precise", mlc.PreciseWriteNanos)
	region.Access(mem.OpWrite, 0, 4)
	region.Access(mem.OpRead, 0, 4)

	for _, tc := range []struct {
		name   string
		mutate func(*Stats)
		want   string
	}{
		{"hit levels", func(s *Stats) { s.L1Hits += 3 }, "read hits"},
		{"device reads", func(s *Stats) { s.Device.Reads += 1 }, "device serviced"},
		{"device writes", func(s *Stats) { s.Device.Writes += 1 }, "device serviced"},
		{"negative clock", func(s *Stats) { s.Clock = -1 }, "negative"},
		{"clock under accounted", func(s *Stats) { s.Clock = 0; s.CacheReadNanos = 100 }, "below accounted"},
	} {
		st := sys.Stats()
		tc.mutate(&st)
		err := st.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestStatsCheckNamesFirstNegativeField pins which field the negativity
// check reports when several are negative: the first in declaration
// order, on every call.
func TestStatsCheckNamesFirstNegativeField(t *testing.T) {
	st := New().Stats()
	st.MemReadNanos = -2
	st.WriteStallNanos = -3
	const want = "hybrid: MemReadNanos = -2 is negative"
	for i := 0; i < 50; i++ {
		if err := st.Check(); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}
