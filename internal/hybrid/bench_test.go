package hybrid

import (
	"testing"

	"approxsort/internal/mem"
	"approxsort/internal/mlc"
	"approxsort/internal/sorts"
)

// recorder captures an access stream as packed events: addr<<1 | op.
type recorder struct{ events []uint64 }

func (r *recorder) Access(op mem.Op, addr uint64, _ int) {
	r.events = append(r.events, addr<<1|uint64(op))
}

// BenchmarkSinkReplay replays the recorded access stream of sortd's
// precise path — quicksort over 50k keys, ~2.9M events, the stream
// TestParitySortdPrecisePath pins — through a fresh Table 1 memory
// system per iteration: the per-job cost of the hybrid sink, system
// construction included.
func BenchmarkSinkReplay(b *testing.B) {
	rec := &recorder{}
	sortPrecise(rec, sorts.Quicksort{}, 50000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var clock float64
	for i := 0; i < b.N; i++ {
		sys := New()
		r := sys.Region("precise", mlc.PreciseWriteNanos)
		for _, e := range rec.events {
			r.Access(mem.Op(e&1), e>>1, 4)
		}
		clock = sys.Clock()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.events)), "ns/event")
	b.ReportMetric(clock, "clock_ns")
}
