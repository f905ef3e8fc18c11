package approxsort_test

// One benchmark per table/figure of the paper, plus ablations for the
// design choices called out in DESIGN.md §7. Each benchmark runs the same
// experiment code the cmd/ harnesses use (internal/experiments) at a
// bench-friendly size and reports the experiment's headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// result series in miniature. Full-size tables come from the cmd/
// binaries (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"approxsort/internal/adaptive"
	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/experiments"
	"approxsort/internal/histsort"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
	"approxsort/internal/spintronic"
	"approxsort/internal/verify"
)

const (
	benchN    = 20000
	benchSeed = 0xbe
)

// --- Figure 2: MLC write performance and accuracy vs T ---

func BenchmarkFig2aAvgPulses(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		s := mlc.MonteCarlo(mlc.Approximate(0.1), 5000, benchSeed)
		last = s.AvgP
	}
	b.ReportMetric(last, "avg#P@T=0.1")
	b.ReportMetric(last/mlc.ReferenceAvgP, "p(t)")
}

func BenchmarkFig2bErrorRate(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		s := mlc.MonteCarlo(mlc.Approximate(0.1), 5000, benchSeed)
		last = s.WordErrorRate
	}
	b.ReportMetric(last, "wordErr@T=0.1")
}

// mlcSpace returns the MLC PCM space constructor at half-width t.
func mlcSpace(t float64) func(seed uint64) core.Space {
	return func(seed uint64) core.Space { return mem.NewApproxSpaceAt(t, seed) }
}

// --- Figure 4 / Table 3: sorting in approximate memory only ---

func benchSortOnly(b *testing.B, alg sorts.Algorithm, t float64) {
	keys := dataset.Uniform(benchN, benchSeed)
	var row experiments.SortOnlyRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.SortOnly(alg, t, keys, benchSeed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.RemRatio, "remRatio")
	b.ReportMetric(row.ErrorRate, "errRate")
	b.ReportMetric(row.WriteReduction, "writeReduction")
}

func BenchmarkFig4Quicksort(b *testing.B) { benchSortOnly(b, sorts.Quicksort{}, 0.055) }
func BenchmarkFig4Mergesort(b *testing.B) { benchSortOnly(b, sorts.Mergesort{}, 0.055) }
func BenchmarkFig4LSD6(b *testing.B)      { benchSortOnly(b, sorts.LSD{Bits: 6}, 0.055) }
func BenchmarkFig4MSD6(b *testing.B)      { benchSortOnly(b, sorts.MSD{Bits: 6}, 0.055) }
func BenchmarkTable3AtT01(b *testing.B)   { benchSortOnly(b, sorts.Quicksort{}, 0.1) }
func BenchmarkTable3AtT003(b *testing.B)  { benchSortOnly(b, sorts.Quicksort{}, 0.03) }

// --- Figures 5–7: post-sort sequence shape ---

func BenchmarkFig5to7Shape(b *testing.B) {
	var xs []uint32
	for i := 0; i < b.N; i++ {
		xs = experiments.Shape(sorts.Quicksort{}, 0.055, benchN, benchSeed)
	}
	b.ReportMetric(float64(len(xs)), "points")
}

// --- Figure 9: approx-refine write reduction vs T ---

func benchRefine(b *testing.B, alg sorts.Algorithm, t float64) {
	keys := dataset.Uniform(benchN, benchSeed)
	var row experiments.RefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err = experiments.Refine(alg, t, keys, benchSeed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !row.Sorted {
			b.Fatal("unsorted output")
		}
	}
	b.ReportMetric(row.WriteReduction, "writeReduction")
	b.ReportMetric(row.ModelWR, "modelWR(Eq4)")
	b.ReportMetric(row.RemTildeRatio, "rem~/n")
}

func BenchmarkFig9Quicksort(b *testing.B) { benchRefine(b, sorts.Quicksort{}, 0.055) }
func BenchmarkFig9Mergesort(b *testing.B) { benchRefine(b, sorts.Mergesort{}, 0.055) }
func BenchmarkFig9LSD3(b *testing.B)      { benchRefine(b, sorts.LSD{Bits: 3}, 0.055) }
func BenchmarkFig9MSD3(b *testing.B)      { benchRefine(b, sorts.MSD{Bits: 3}, 0.055) }
func BenchmarkFig9LSD6(b *testing.B)      { benchRefine(b, sorts.LSD{Bits: 6}, 0.055) }
func BenchmarkFig9MSD6(b *testing.B)      { benchRefine(b, sorts.MSD{Bits: 6}, 0.055) }

// --- Figure 10: write reduction vs n (two sizes bracket the trend) ---

func BenchmarkFig10Small(b *testing.B) {
	keys := dataset.Uniform(1600, benchSeed)
	var row experiments.RefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row, err = experiments.Refine(sorts.MSD{Bits: 3}, 0.055, keys, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.WriteReduction, "writeReduction@1.6K")
}

func BenchmarkFig10Large(b *testing.B) {
	keys := dataset.Uniform(160000, benchSeed)
	var row experiments.RefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row, err = experiments.Refine(sorts.MSD{Bits: 3}, 0.055, keys, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.WriteReduction, "writeReduction@160K")
}

// --- Figure 11: write-latency breakdown ---

func BenchmarkFig11Breakdown(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var row experiments.RefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row, err = experiments.Refine(sorts.LSD{Bits: 6}, 0.055, keys, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	total := row.ApproxWriteNanos + row.RefineWriteNanos
	b.ReportMetric(row.RefineWriteNanos/total, "refineShare")
}

// --- Equation 4: analytic cost model ---

func BenchmarkCostModelEq4(b *testing.B) {
	m := core.CostModel{P: 0.67, Alpha: core.AlphaQuicksort}
	var wr float64
	for i := 0; i < b.N; i++ {
		wr = m.WriteReduction(16000000, 200000)
	}
	b.ReportMetric(wr, "modelWR@16M")
}

// --- Figures 12–14: the spintronic model of Appendix A ---

func BenchmarkFig12SpintronicSortOnly(b *testing.B) {
	var rows []experiments.SpinSortRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig12([]sorts.Algorithm{sorts.Mergesort{}},
			spintronic.Presets()[3:], benchN, benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RemRatio, "remRatio@50%")
}

func BenchmarkFig13SpinRefine(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var row experiments.SpinRefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row, err = experiments.SpinRefine(sorts.MSD{Bits: 3}, spintronic.Presets()[2], keys, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.EnergySaving, "energySaving@33%")
}

func BenchmarkFig14SpinBreakdown(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var row experiments.SpinRefineRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row, err = experiments.SpinRefine(sorts.LSD{Bits: 6}, spintronic.Presets()[2], keys, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.RefineEnergy/(row.ApproxEnergy+row.RefineEnergy), "refineShare")
}

// --- Figure 15: histogram-based radix (Appendix B) ---

func BenchmarkFig15HistLSD3(b *testing.B) { benchRefine(b, histsort.HistLSD{Bits: 3}, 0.055) }
func BenchmarkFig15HistMSD3(b *testing.B) { benchRefine(b, histsort.HistMSD{Bits: 3}, 0.055) }

// --- Table 1 / abstract: end-to-end memory access time ---

func BenchmarkAccessTimeTable1(b *testing.B) {
	var row experiments.AccessTimeRow
	var err error
	for i := 0; i < b.N; i++ {
		if row, err = experiments.AccessTime(sorts.MSD{Bits: 3}, 0.055, benchN, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.LatencyReduction, "latencyReduction")
	b.ReportMetric(row.QueueAwareReduction, "queueAwareReduction")
}

// --- Ablations (DESIGN.md §7) ---

// BenchmarkAblationRefineVsAdaptive compares the write bill of the paper's
// heuristic refine stage against the adaptive natural-mergesort baseline on
// the same nearly sorted order.
func BenchmarkAblationRefineVsAdaptive(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var heuristic, adaptiveWrites float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(keys, core.Config{
			Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.055), Seed: benchSeed, SkipBaseline: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := res.Report
		heuristic = float64(r.RefineFind.Precise.Writes + r.RefineSort.Precise.Writes +
			r.RefineMerge.Precise.Writes)

		// Rebuild an equivalent nearly sorted order (same seeds) and
		// refine it adaptively instead.
		space := mem.NewPreciseSpace()
		key0 := space.Alloc(benchN)
		mem.Load(key0, keys)
		id := space.Alloc(benchN)
		approx := mem.NewApproxSpaceAt(0.055, benchSeed)
		keyA := approx.Alloc(benchN)
		mem.Copy(keyA, key0)
		mem.Load(id, dataset.IDs(benchN))
		env := sorts.Env{KeySpace: approx, IDSpace: space, R: rng.New(benchSeed)}
		sorts.Quicksort{}.Sort(sorts.Pair{Keys: keyA, IDs: id}, env)
		finalKey, finalID := space.Alloc(benchN), space.Alloc(benchN)
		before := space.Stats().Writes
		adaptive.RefineAdaptive(key0, id, space, finalKey, finalID)
		adaptiveWrites = float64(space.Stats().Writes - before)
	}
	b.ReportMetric(heuristic/benchN, "heuristicWrites/n")
	b.ReportMetric(adaptiveWrites/benchN, "adaptiveWrites/n")
}

// BenchmarkAblationQueueVsHistogram compares key writes of queue-bucket and
// histogram LSD (the Appendix B mechanism).
func BenchmarkAblationQueueVsHistogram(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	measure := func(alg sorts.Algorithm) float64 {
		ks := mem.NewPreciseSpace()
		env := sorts.Env{KeySpace: ks, IDSpace: mem.NewPreciseSpace(), R: rng.New(benchSeed)}
		p := sorts.Pair{Keys: ks.Alloc(benchN)}
		mem.Load(p.Keys, keys)
		alg.Sort(p, env)
		return float64(ks.Stats().Writes - benchN)
	}
	var queue, hist float64
	for i := 0; i < b.N; i++ {
		queue = measure(sorts.LSD{Bits: 6})
		hist = measure(histsort.HistLSD{Bits: 6})
	}
	b.ReportMetric(queue/benchN, "queueWrites/n")
	b.ReportMetric(hist/benchN, "histWrites/n")
}

// BenchmarkAblationTableVsExact compares the two MLC engines' throughput.
func BenchmarkAblationModelExact(b *testing.B) {
	model := mlc.NewExact(mlc.Approximate(0.055))
	r := rng.New(benchSeed)
	var sink uint32
	for i := 0; i < b.N; i++ {
		s, _ := model.WriteWord(r, uint32(i)*2654435761)
		sink ^= s
	}
	_ = sink
}

func BenchmarkAblationModelTable(b *testing.B) {
	model := mlc.NewTable(mlc.Approximate(0.055), 0, benchSeed)
	r := rng.New(benchSeed)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		s, _ := model.WriteWord(r, uint32(i)*2654435761)
		sink ^= s
	}
	_ = sink
}

// BenchmarkAblationExactLIS compares the refine stage's heuristic against
// the exact-LIS variant (remainder size vs bookkeeping writes).
func BenchmarkAblationExactLIS(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var heurRem, exactRem, heurWrites, exactWrites float64
	for i := 0; i < b.N; i++ {
		h, err := core.Run(keys, core.Config{
			Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.07), Seed: benchSeed, SkipBaseline: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Run(keys, core.Config{
			Algorithm: sorts.Quicksort{}, NewSpace: mlcSpace(0.07), Seed: benchSeed, SkipBaseline: true, ExactLIS: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		heurRem = float64(h.Report.RemTilde)
		exactRem = float64(e.Report.RemTilde)
		heurWrites = float64(h.Report.RefineFind.Precise.Writes)
		exactWrites = float64(e.Report.RefineFind.Precise.Writes)
	}
	b.ReportMetric(heurRem/benchN, "heurRem/n")
	b.ReportMetric(exactRem/benchN, "exactRem/n")
	b.ReportMetric(heurWrites/benchN, "heurFindWrites/n")
	b.ReportMetric(exactWrites/benchN, "exactFindWrites/n")
}

// BenchmarkPlanner measures the pilot-based switch decision of
// core.Planner (Section 4.3's "switch accordingly").
func BenchmarkPlanner(b *testing.B) {
	keys := dataset.Uniform(200000, benchSeed)
	var plan core.Plan
	var err error
	for i := 0; i < b.N; i++ {
		plan, err = core.Planner{Config: core.Config{NewSpace: mlcSpace(0.055), Seed: benchSeed}}.
			Plan(keys, core.InMemory{}, []sorts.Candidate{{Alg: sorts.MSD{Bits: 3}}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plan.PredictedWR, "predictedWR")
	b.ReportMetric(boolMetric(plan.UseHybrid), "useHybrid")
}

// BenchmarkAblationCellDensity compares pulse counts across cell densities
// at a fixed guard fraction (the Sampson density trade-off).
func BenchmarkAblationCellDensity(b *testing.B) {
	var slc, m4, m16 float64
	for i := 0; i < b.N; i++ {
		slc = mlc.MonteCarlo(mlc.GuardFraction(2, 0.4), 2000, benchSeed).AvgP
		m4 = mlc.MonteCarlo(mlc.GuardFraction(4, 0.4), 2000, benchSeed).AvgP
		m16 = mlc.MonteCarlo(mlc.GuardFraction(16, 0.4), 2000, benchSeed).AvgP
	}
	b.ReportMetric(slc, "avg#P@SLC")
	b.ReportMetric(m4, "avg#P@4level")
	b.ReportMetric(m16, "avg#P@16level")
}

// BenchmarkRobustness runs the cross-distribution precision sweep.
func BenchmarkRobustness(b *testing.B) {
	var rows []experiments.RobustnessRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Robustness([]sorts.Algorithm{sorts.MSD{Bits: 6}}, 0.055, 5000, benchSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "distributions")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkFig9Workers runs the full Figure 9 grid (StudyAlgorithms x
// StandardTs) at increasing worker counts. Results are bit-identical at
// every count; only the wall clock changes, and only on multi-core hosts.
func BenchmarkFig9Workers(b *testing.B) {
	algs := experiments.StudyAlgorithms()
	ts := mlc.StandardTs(false)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig9(algs, ts, 4000, benchSeed, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableCache measures the shared MLC table cache: with the cache
// on, a sweep of A algorithms x K T-points builds K transition tables; off,
// it builds one per grid point.
func BenchmarkTableCache(b *testing.B) {
	algs := experiments.StudyAlgorithms()
	ts := mlc.StandardTs(false)
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache=%v", on), func(b *testing.B) {
			prev := mlc.SetSharedTableCache(on)
			defer mlc.SetSharedTableCache(prev)
			for i := 0; i < b.N; i++ {
				mlc.SharedTables().Reset()
				if _, err := experiments.Fig9(algs, ts, 4000, benchSeed, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRadixBins sweeps the paper's bin-width tuning parameter.
func BenchmarkAblationRadixBins(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	var wr3, wr6 float64
	for i := 0; i < b.N; i++ {
		r3, err := experiments.Refine(sorts.MSD{Bits: 3}, 0.055, keys, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		r6, err := experiments.Refine(sorts.MSD{Bits: 6}, 0.055, keys, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		wr3, wr6 = r3.WriteReduction, r6.WriteReduction
	}
	b.ReportMetric(wr3, "WR@3bit")
	b.ReportMetric(wr6, "WR@6bit")
}

// --- The memmodel seam: refine cost per backend, seam vs direct ---

// BenchmarkRefineBackends runs one approx-refine per registered backend
// at its featured operating point, both through the registry seam
// (experiments.RefineAt) and via a direct twin that builds the concrete
// space and runs the same audit, but with no registry resolution,
// normalization, or row assembly. Dispatch is per run, not per access —
// backends hand core.Run concrete spaces, so the sort inner loops stay
// devirtualized — and the seam-vs-direct delta is the artifact recorded
// in BENCH_backend.json.
func BenchmarkRefineBackends(b *testing.B) {
	keys := dataset.Uniform(benchN, benchSeed)
	alg := sorts.MSD{Bits: 6}
	cases := []struct {
		pt     memmodel.Point
		direct func(uint64) core.Space
	}{
		{memmodel.MLC(0.055), func(s uint64) core.Space { return mem.NewApproxSpaceAt(0.055, s) }},
		{memmodel.Spintronic(spintronic.Presets()[2]), func(s uint64) core.Space {
			return spintronic.NewSpace(spintronic.Presets()[2], s)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.pt.Backend+"/seam", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiments.RefineAt(alg, tc.pt, keys, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				if !row.Sorted {
					b.Fatal("unsorted output")
				}
			}
		})
		id := memmodel.MustGet(tc.pt.Backend).Identities(memmodel.MustGet(tc.pt.Backend).DefaultPoint())
		b.Run(tc.pt.Backend+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(keys, core.Config{Algorithm: alg, NewSpace: tc.direct, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				if err := verify.CheckRefineRun(keys, res, id).Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
