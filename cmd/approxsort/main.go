// Command approxsort is the demonstration CLI: it sorts a dataset with the
// approx-refine mechanism on hybrid precise/approximate memory and prints
// the full per-stage report — the quickest way to see the paper's pipeline
// end to end. With -plan it first consults the Section 4.3 cost-model
// planner and reports whether the hybrid execution is predicted to win.
//
// With -external the input is streamed through the out-of-core pipeline
// instead: replacement-selection run formation on the hybrid memory
// system, spill to disk, and a write-limited k-way merge, with every run
// and the merged output audited by internal/verify. -autoplan consults
// the (M, B, ω) external planner for the run size, fan-in and formation
// verdict.
//
// Usage:
//
//	go run ./cmd/approxsort [-n N] [-T 0.055] [-alg msd] [-bits 6]
//	                        [-dist uniform|sorted|reverse|zipf|fewdistinct]
//	                        [-exactlis] [-plan]
//	go run ./cmd/approxsort -external [-runsize M] [-fanin K] [-formation replacement|chunk]
//	                        [-refine-at-merge] [-autoplan] [-o sorted.raw]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/histsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
	"approxsort/internal/stats"
	"approxsort/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("approxsort: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("approxsort", flag.ContinueOnError)
	fs.SetOutput(stdout)
	n := fs.Int("n", 1000000, "number of records")
	t := fs.Float64("T", 0.055, "approximate-memory target half-width (0.025=precise .. 0.125=no guard band)")
	algName := fs.String("alg", "msd", "quicksort|mergesort|lsd|msd|onesweep-lsd|histlsd|histmsd")
	bits := fs.Int("bits", 0, "radix digit width (0 = the algorithm's default: 6 for lsd/msd, 8 for onesweep-lsd)")
	dist := fs.String("dist", "uniform", "key distribution: uniform|sorted|reverse|zipf|fewdistinct")
	seed := fs.Uint64("seed", 1, "RNG seed")
	exactLIS := fs.Bool("exactlis", false, "use the exact-LIS refine variant (ablation)")
	plan := fs.Bool("plan", false, "consult the Section 4.3 planner before sorting")
	external := fs.Bool("external", false, "sort out-of-core: stream the dataset through extsort instead of materializing it")
	runSize := fs.Int("runsize", 1<<20, "external: in-memory run budget M in records")
	fanIn := fs.Int("fanin", 16, "external: merge fan-in cap")
	formation := fs.String("formation", "replacement", "external: run formation, replacement|chunk")
	refineAtMerge := fs.Bool("refine-at-merge", false, "external: defer each run's refine merge into the k-way merge")
	autoplan := fs.Bool("autoplan", false, "external: let the (M, B, ω) planner pick run size, fan-in and formation mode")
	outPath := fs.String("o", "", "external: write the sorted stream to this file (default: discard after verification)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}

	// The registry owns the algorithm roster; only the histogram
	// variants — deliberately unregistered ablation tools — are resolved
	// here by hand.
	histBits := *bits
	if histBits == 0 {
		histBits = 6
	}
	var alg sorts.Algorithm
	switch *algName {
	case "histlsd":
		alg = histsort.HistLSD{Bits: histBits}
	case "histmsd":
		alg = histsort.HistMSD{Bits: histBits}
	default:
		var err error
		if alg, err = sorts.New(*algName, *bits); err != nil {
			return err
		}
	}

	if *external {
		return runExternal(stdout, alg, extConfig{
			n: *n, t: *t, dist: *dist, seed: *seed,
			runSize: *runSize, fanIn: *fanIn, formation: *formation,
			refineAtMerge: *refineAtMerge, autoplan: *autoplan, out: *outPath,
		})
	}

	var keys []uint32
	switch *dist {
	case "uniform":
		keys = dataset.Uniform(*n, *seed)
	case "sorted":
		keys = dataset.Sorted(*n)
	case "reverse":
		keys = dataset.Reverse(*n)
	case "zipf":
		keys = dataset.Zipf(*n, 1024, 1.2, *seed)
	case "fewdistinct":
		keys = dataset.FewDistinct(*n, 16, *seed)
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}

	cfg := core.Config{
		Algorithm:         alg,
		T:                 *t,
		Seed:              *seed,
		MeasureSortedness: true,
		ExactLIS:          *exactLIS,
	}

	if *plan {
		p, err := core.Planner{Config: cfg}.Plan(keys, core.InMemory{}, []sorts.Candidate{{Alg: cfg.Algorithm}})
		if err != nil {
			fmt.Fprintf(stdout, "planner unavailable (%v); proceeding with hybrid run\n\n", err)
		} else {
			fmt.Fprintf(stdout, "planner (pilot %d records): p(t)=%.3f, predicted Rem~=%d, predicted WR=%.2f%%\n",
				p.PilotSize, p.P, p.PredictedRem, 100*p.PredictedWR)
			if p.UseHybrid {
				fmt.Fprint(stdout, "verdict: approx-refine should beat the precise-only sort\n\n")
			} else {
				fmt.Fprint(stdout, "verdict: precise-only sorting predicted cheaper; running hybrid anyway for the report\n\n")
			}
		}
	}

	res, err := core.Run(keys, cfg)
	if err != nil {
		return err
	}
	r := res.Report

	fmt.Fprintf(stdout, "approx-refine: %s over %d %s keys at T=%.3f\n\n", r.Algorithm, r.N, *dist, *t)
	tab := stats.NewTable("stage", "approx writes", "approx ns", "precise writes", "precise ns")
	addStage := func(name string, b core.StageBreakdown) {
		tab.AddRow(name, b.Approx.Writes, b.Approx.WriteNanos, b.Precise.Writes, b.Precise.WriteNanos)
	}
	addStage("approx preparation", r.Prep)
	addStage("approx stage (sort)", r.ApproxSort)
	addStage("refine 1: find LIS~/REM", r.RefineFind)
	addStage("refine 2: sort REMID", r.RefineSort)
	addStage("refine 3: merge", r.RefineMerge)
	if err := tab.Write(stdout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\npost-approx sortedness: Rem=%d (%.2f%%), Rem~=%d (%.2f%%), error rate %.3f%%\n",
		r.PostApproxRem, 100*float64(r.PostApproxRem)/float64(maxInt(r.N, 1)),
		r.RemTilde, 100*r.RemTildeRatio(), 100*r.PostApproxErrorRate)
	fmt.Fprintf(stdout, "total write latency: hybrid %.3f ms vs precise-only %.3f ms\n",
		r.Total().WriteNanos()/1e6, r.Baseline.WriteNanos/1e6)
	fmt.Fprintf(stdout, "write reduction (Eq. 2): %.2f%%   access-time reduction: %.2f%%\n",
		100*r.WriteReduction(), 100*r.AccessTimeReduction())
	fmt.Fprintf(stdout, "output precise and fully sorted: %v\n", r.Sorted)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type extConfig struct {
	n             int
	t             float64
	dist          string
	seed          uint64
	runSize       int
	fanIn         int
	formation     string
	refineAtMerge bool
	autoplan      bool
	out           string
}

// runExternal streams the dataset through the out-of-core pipeline and
// prints the external sort's report.
func runExternal(stdout io.Writer, alg sorts.Algorithm, ec extConfig) error {
	src, err := dataset.StreamSpec{Kind: ec.dist, N: ec.n, Seed: ec.seed}.Stream()
	if err != nil {
		return err
	}
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.Point{Backend: b.Name(), Params: map[string]float64{"t": ec.t}})
	if err != nil {
		return err
	}

	var out io.Writer = io.Discard
	if ec.out != "" {
		f, err := os.Create(ec.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	sc := verify.NewStreamChecker(out)

	st, err := extsort.SortStream(src, sc, extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
			Seed:      ec.seed,
		},
		RunSize:       ec.runSize,
		FanIn:         ec.fanIn,
		Formation:     ec.formation,
		RefineAtMerge: ec.refineAtMerge,
		AutoPlan:      ec.autoplan,
		TotalRecords:  int64(ec.n),
		Omega:         memmodel.WriteCostRatio(b, pt),
		Verifier:      verify.Auditor{ID: b.Identities(pt)},
	})
	if err != nil {
		return err
	}
	if err := sc.Finish(st.Records); err != nil {
		return err
	}
	if err := verify.CheckExtsortStats(st).Err(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "external approx-refine: %s over %d %s keys at T=%.3f\n\n",
		alg.Name(), st.Records, ec.dist, ec.t)
	if st.Plan != nil {
		e := st.Plan
		fmt.Fprintf(stdout, "planner (M=%d, B=%d, ω=%.2f): hybrid=%v refine-at-merge=%v run size %d, fan-in %d\n",
			e.MemBudget, e.Block, e.Omega, e.UseHybrid, e.RefineAtMerge, e.RunSize, e.FanIn)
		fmt.Fprintf(stdout, "predicted writes: formation %.0f + merge %.0f = %.0f (precise-only plan: %.0f)\n\n",
			e.FormationWrites, e.MergeWrites, e.TotalWrites, e.PreciseWrites)
	}
	fmt.Fprintf(stdout, "runs: %d (mean length %.0f records, %.2f×M via %s formation)\n",
		st.Runs, st.MeanRunLength(), st.MeanRunLength()/float64(maxInt(st.RunSize, 1)), st.Formation)
	fmt.Fprintf(stdout, "merge: %d passes at fan-in %d, %d staged precise writes (%.3f ms)\n",
		st.MergePasses, st.FanIn, st.MergeWrites, st.MergeWriteNanos/1e6)
	fmt.Fprintf(stdout, "refine remainders: Rem~ total %d (%.2f%% of input)\n",
		st.RemTildeTotal, 100*float64(st.RemTildeTotal)/float64(maxInt(int(st.Records), 1)))
	fmt.Fprintf(stdout, "formation write latency: %.3f ms   disk: %d bytes written, high-water %d\n",
		st.HybridWriteNanos/1e6, st.DiskBytesWritten, st.DiskHighWater)
	fmt.Fprintf(stdout, "output verified: sorted stream, %d records conserved, per-run audits passed\n", st.Records)
	return nil
}
