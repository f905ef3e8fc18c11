package approxsort_test

// Algorithm-registry benchmarks (BENCH_algo.json): the write-combining
// OneSweep radix vs the paper's queue-bucket LSD at equal T on the
// Figure 9 approx-refine configuration. The headline metric is total
// approximate writes per element — the quantity the wider digit buys
// down — alongside the resulting write reduction.

import (
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
)

func benchAlgoWrites(b *testing.B, alg sorts.Algorithm, t float64) {
	keys := dataset.Uniform(benchN, benchSeed)
	var report *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(keys, core.Config{Algorithm: alg, T: t, Seed: benchSeed + uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.Sorted {
			b.Fatal("unsorted output")
		}
		report = res.Report
	}
	total := report.Total()
	b.ReportMetric(float64(total.Approx.Writes)/float64(report.N), "approxWrites/elem")
	b.ReportMetric(report.WriteReduction(), "writeReduction")
}

func BenchmarkAlgoLSD6AtT0055(b *testing.B) { benchAlgoWrites(b, sorts.LSD{Bits: 6}, 0.055) }
func BenchmarkAlgoOneSweep8AtT0055(b *testing.B) {
	benchAlgoWrites(b, sorts.OneSweepLSD{Bits: 8}, 0.055)
}
func BenchmarkAlgoLSD6AtT003(b *testing.B)      { benchAlgoWrites(b, sorts.LSD{Bits: 6}, 0.03) }
func BenchmarkAlgoOneSweep8AtT003(b *testing.B) { benchAlgoWrites(b, sorts.OneSweepLSD{Bits: 8}, 0.03) }
