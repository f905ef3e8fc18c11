// Package extsort implements out-of-core external merge sort with
// approx-refine run formation — the integration path the paper sketches
// in Section 4.1: "If the data is initially in the hard disk, we need to
// adopt more advanced external memory sorting algorithms, for which the
// proposed approx-refine scheme can be used in their in-memory sorting
// steps."
//
// SortStream reads a stream of little-endian uint32 keys, forms sorted
// runs on the hybrid precise/approximate system (internal/core), spills
// them to temporary files, and k-way-merges them into the output; one
// monotone radix heap is the priority queue of both phases. Three axes
// are independently configurable and — under AutoPlan — chosen by the
// (M, B, ω) cost model (core.Planner.Plan, DESIGN.md §14):
//
//   - Run formation: replacement selection (the default; a radix heap
//     over RunSize resident records assigns each incoming record to
//     the earliest run that can still accept it, yielding runs of ~2×
//     RunSize expected length on random input — the snowplow argument)
//     or plain load-sort-store chunking (runs of exactly RunSize).
//   - Run sorting: the approx-refine pipeline per run (hybrid, the point
//     of the study), its refine-at-merge variant (core.RunParts: each
//     run spills as a sorted LIS~ part and a sorted REM part, and refine
//     step 3's 2n+Rem~ precise writes are paid inside the external merge
//     that has to stream every record anyway), or a precise-only sort
//     when the device clock offers no write asymmetry worth exploiting.
//   - Merge: groups of FanIn cursors per pass, every pass charged at one
//     precise write per record through a block-sized staging window in
//     simulated precise memory. Input files are unlinked the moment the
//     merge exhausts them, so the live spill footprint stays near the
//     input size instead of 2× (diskTracker pins the high-water mark).
//
// Runs are bit-exact sorted — the refine stage guarantees it — so the
// merge needs no special handling; a run file that ever yields a
// decreasing key is reported as corruption, not silently merged.
package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"approxsort/internal/core"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
)

// Formation disciplines for Config.Formation.
const (
	// FormationReplacement is replacement selection: runs of ~2×RunSize
	// expected length on random input.
	FormationReplacement = "replacement"
	// FormationChunk is load-sort-store: runs of exactly RunSize.
	FormationChunk = "chunk"
)

// Verifier receives every formed run for independent checking before it
// is spilled. internal/verify.Auditor implements it; the indirection
// keeps this package free of an import cycle (verify imports extsort for
// the Stats reconciliation checks).
type Verifier interface {
	// VerifyHybridRun audits one approx-refine run (input vs core.Run's
	// result, including the per-stage accounting identities).
	VerifyHybridRun(input []uint32, res core.Result) error
	// VerifyPartsRun audits one refine-at-merge run (input vs the
	// LIS~/REM parts of core.RunParts).
	VerifyPartsRun(input []uint32, parts core.Parts) error
	// VerifyPreciseRun audits one precise-only run (input vs output).
	VerifyPreciseRun(input, output []uint32) error
}

// Progress is a point-in-time snapshot delivered to Config.Progress.
type Progress struct {
	// Phase is "form" while reading input and forming runs, "merge"
	// afterwards.
	Phase string
	// Records is the number of input records consumed so far.
	Records int64
	// Runs is the number of level-0 runs formed so far.
	Runs int
	// Pass is the current merge pass (1-based; 0 during formation and
	// during the refine-at-merge fragment collapse).
	Pass int
	// MergedRecords counts records written during the current merge pass.
	MergedRecords int64
	// DiskBytes is the current live spill footprint.
	DiskBytes int64
}

// Config controls the external sort.
type Config struct {
	// Core configures the in-memory run sorting (algorithm, T or
	// backend space, seed). Baseline and sortedness measurement are
	// forced off; per-run seeds are split from Core.Seed by run index.
	Core core.Config

	// RunSize is the in-memory record budget M: the number of records
	// resident in the selection buffer (default 1<<20). Replacement
	// selection emits runs of ~2×RunSize; chunk formation of exactly
	// RunSize. Under AutoPlan it is the budget the planner divides.
	RunSize int

	// FanIn is the merge width (default 16, minimum 2). Under AutoPlan
	// it caps the planner's M/B−1 choice.
	FanIn int

	// TempDir receives the run files (default os.TempDir()). Files are
	// removed as soon as the merge exhausts them.
	TempDir string

	// Formation selects the run-formation discipline (default
	// FormationReplacement).
	Formation string

	// RefineAtMerge defers each run's refine step 3 into the external
	// merge: runs spill as sorted LIS~/REM part pairs (core.RunParts)
	// and the merge fans in two cursors per run. Incompatible with
	// Precise. Under AutoPlan the planner decides and this is ignored.
	RefineAtMerge bool

	// Precise forms runs with a precise-only sort instead of
	// approx-refine (the planner's verdict when ω offers no asymmetry).
	// Under AutoPlan the planner decides and this is ignored.
	Precise bool

	// AutoPlan runs the (M, B, ω) planner (core.Planner.Plan) on a pilot
	// prefix of the stream and lets its verdict choose run size, fan-in,
	// hybrid vs precise, and refine-at-merge. Requires TotalRecords.
	AutoPlan bool

	// TotalRecords is the expected stream length in records — known from
	// a dataset spec or a Content-Length — required by AutoPlan (the
	// pass structure depends on N).
	TotalRecords int64

	// Block is the I/O block size in records (default
	// core.ExtBlockDefault): the planner's B and the granularity of the
	// merge's charged staging writes.
	Block int

	// Omega overrides ω for the planner; non-positive derives it from
	// the pilot (see core.ExtConfig.Omega).
	Omega float64

	// MaxDiskBytes bounds the live spill footprint; a sort that would
	// exceed it fails with an error wrapping ErrDiskQuota (0 =
	// unlimited).
	MaxDiskBytes int64

	// Verifier, when non-nil, audits every formed run before it spills.
	Verifier Verifier

	// OnProgress, when non-nil, is called after every formed run and
	// every merged group. It must be fast; it runs on the sorting
	// goroutine.
	OnProgress func(Progress)
}

func (c *Config) setDefaults() error {
	if c.RunSize <= 0 {
		c.RunSize = 1 << 20
	}
	if c.FanIn == 0 {
		c.FanIn = 16
	}
	if c.FanIn < 2 {
		return fmt.Errorf("extsort: FanIn must be >= 2, got %d", c.FanIn)
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	if c.Formation == "" {
		c.Formation = FormationReplacement
	}
	if c.Formation != FormationReplacement && c.Formation != FormationChunk {
		return fmt.Errorf("extsort: unknown Formation %q", c.Formation)
	}
	if c.Block <= 0 {
		c.Block = core.ExtBlockDefault
	}
	if c.Precise && c.RefineAtMerge {
		return errors.New("extsort: RefineAtMerge requires hybrid run formation (Precise=false)")
	}
	if c.AutoPlan && c.TotalRecords <= 0 {
		return errors.New("extsort: AutoPlan requires TotalRecords (the pass structure depends on N)")
	}
	return nil
}

// RunInfo is the per-run accounting fold the verifier reconciles against
// the Stats totals.
type RunInfo struct {
	// Records is the run's length; under replacement selection runs vary
	// around 2×RunSize.
	Records int
	// RemTilde is the run's refine remainder (0 for precise runs).
	RemTilde int
	// WriteNanos is the run's charged formation write latency.
	WriteNanos float64
	// Hybrid records whether the run used approx-refine.
	Hybrid bool
}

// Stats summarizes one external sort.
type Stats struct {
	// Records is the total number of keys sorted.
	Records int64
	// Runs is the number of level-0 runs formed.
	Runs int
	// MergePasses counts merge levels (1 when all cursors fit one group,
	// 0 for a single spilled run streamed out directly).
	MergePasses int
	// HybridWriteNanos aggregates the run-formation write latency over
	// all runs (hybrid or precise).
	HybridWriteNanos float64
	// RemTildeTotal sums the refine remainders over all runs.
	RemTildeTotal int

	// Formation, Hybrid and RefineAtMerge echo the executed strategy
	// (after AutoPlan, the planner's verdict).
	Formation     string
	Hybrid        bool
	RefineAtMerge bool
	// RunSize and FanIn echo the executed geometry.
	RunSize int
	FanIn   int

	// MergeWrites and MergeWriteNanos are the merge's charged precise
	// staging traffic: one write per record per full pass, plus the
	// fragment-collapse records below.
	MergeWrites     int64
	MergeWriteNanos float64

	// FragmentCollapses and CollapsedRecords ledger the fragment-aware
	// fan-in allocator (refine-at-merge only): when LIS~/REM part pairs
	// exceed the fan-in, the smallest files are pre-folded in
	// FragmentCollapses greedy groups totalling CollapsedRecords staged
	// records instead of paying a full extra level pass. The exact merge
	// identity is MergeWrites == MergePasses×Records + CollapsedRecords.
	FragmentCollapses int
	CollapsedRecords  int64

	// DiskBytesWritten is the cumulative spill volume; DiskHighWater the
	// peak simultaneously-live spill footprint.
	DiskBytesWritten int64
	DiskHighWater    int64

	// PerRun folds each run's length, remainder and write cost into the
	// job accounting (internal/verify.CheckExtsortStats reconciles the
	// totals above against it).
	PerRun []RunInfo

	// Plan is the (M, B, ω) verdict that chose the geometry (AutoPlan
	// only).
	Plan *core.ExternalPlan
}

// MeanRunLength returns the mean level-0 run length in records — ≈
// 2×RunSize under replacement selection on random input.
func (s Stats) MeanRunLength() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Runs)
}

// state carries one SortStream invocation.
type state struct {
	cfg   Config
	dir   string
	disk  diskTracker
	stats Stats
	// hybrid/refineAtMerge/runSize/fanIn are the executed strategy
	// (Config after the planner's verdict).
	hybrid        bool
	refineAtMerge bool
	runSize       int
	fanIn         int
	merge         *mergeAccountant
}

// SortStream sorts the uint32 stream from r into w and returns the sort
// statistics. The input need not fit in memory; only Config.RunSize
// records are resident in the selection buffer (plus the run being
// sorted and merge block buffers).
func SortStream(r io.Reader, w io.Writer, cfg Config) (Stats, error) {
	if err := cfg.setDefaults(); err != nil {
		return Stats{}, err
	}
	cfg.Core.SkipBaseline = true
	cfg.Core.MeasureSortedness = false
	if cfg.Core.Algorithm == nil {
		return Stats{}, errors.New("extsort: Config.Core.Algorithm is required")
	}

	dir, err := os.MkdirTemp(cfg.TempDir, "extsort-runs-")
	if err != nil {
		return Stats{}, fmt.Errorf("extsort: creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	st := &state{
		cfg:           cfg,
		dir:           dir,
		disk:          diskTracker{quota: cfg.MaxDiskBytes},
		hybrid:        !cfg.Precise,
		refineAtMerge: cfg.RefineAtMerge,
		runSize:       cfg.RunSize,
		fanIn:         cfg.FanIn,
		merge:         newMergeAccountant(cfg.Block),
	}

	src := newRecordSource(r)
	if cfg.AutoPlan {
		if err := st.plan(src); err != nil {
			return st.finish(), err
		}
	}

	var files []runFile
	if cfg.Formation == FormationReplacement {
		files, err = st.formReplacement(src)
	} else {
		files, err = st.formChunk(src)
	}
	if err != nil {
		return st.finish(), err
	}

	if err := st.mergeAll(files, w); err != nil {
		return st.finish(), err
	}
	return st.finish(), nil
}

// finish folds the trackers into the returned Stats.
func (st *state) finish() Stats {
	s := st.stats
	s.Formation = st.cfg.Formation
	s.Hybrid = st.hybrid
	s.RefineAtMerge = st.refineAtMerge
	s.RunSize = st.runSize
	s.FanIn = st.fanIn
	s.DiskBytesWritten = st.disk.written
	s.DiskHighWater = st.disk.high
	s.MergeWrites, s.MergeWriteNanos = st.merge.totals()
	return s
}

// plan consumes a pilot prefix of the stream, runs the (M, B, ω) planner
// and adopts its verdict, then pushes the prefix back for run formation.
func (st *state) plan(src *recordSource) error {
	pilotMax := st.cfg.RunSize
	if pilotMax > 1<<15 {
		pilotMax = 1 << 15
	}
	sample := make([]uint32, 0, pilotMax)
	for len(sample) < pilotMax {
		k, ok, err := src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		sample = append(sample, k)
	}
	src.pushBack(sample)

	pilotCfg := st.cfg.Core
	pilotCfg.Seed = rng.Split(st.cfg.Core.Seed, "extsort", "pilot")
	plan, err := core.Planner{Config: pilotCfg}.Plan(sample, core.ExtConfig{
		N:                  st.cfg.TotalRecords,
		MemBudget:          st.cfg.RunSize,
		Block:              st.cfg.Block,
		MaxFanIn:           st.cfg.FanIn,
		Omega:              st.cfg.Omega,
		Replacement:        st.cfg.Formation == FormationReplacement,
		AllowRefineAtMerge: !st.cfg.Precise,
	}, []sorts.Candidate{{Alg: pilotCfg.Algorithm}})
	if err != nil {
		return fmt.Errorf("extsort: planning: %w", err)
	}
	e := plan.External
	st.runSize = e.RunSize
	st.fanIn = e.FanIn
	st.hybrid = e.UseHybrid
	st.refineAtMerge = e.RefineAtMerge
	st.stats.Plan = e
	return nil
}

// runSeed derives the per-run stream seed from the job seed, keyed by the
// stable run index (never by data content), so a re-run of the same
// stream reproduces every run bit-for-bit.
func (st *state) runSeed(runIndex int) uint64 {
	return rng.Split(st.cfg.Core.Seed, "extsort", "run", runIndex)
}

// flushRun sorts one formed run on the configured memory system, audits
// it, spills it, and folds its accounting into the stats. It returns the
// spilled file(s): one for ordinary runs, a LIS~/REM pair under
// refine-at-merge.
func (st *state) flushRun(buf []uint32) ([]runFile, error) {
	runIndex := st.stats.Runs
	info := RunInfo{Records: len(buf), Hybrid: st.hybrid}

	var files []runFile
	switch {
	case !st.hybrid:
		out, writeNanos, err := preciseSortRun(buf, st.cfg.Core, st.runSeed(runIndex))
		if err != nil {
			return nil, err
		}
		if v := st.cfg.Verifier; v != nil {
			if err := v.VerifyPreciseRun(buf, out); err != nil {
				return nil, fmt.Errorf("extsort: run %d failed verification: %w", runIndex, err)
			}
		}
		info.WriteNanos = writeNanos
		rf, err := writeRunFile(st.runPath(runIndex, "run"), out, &st.disk)
		if err != nil {
			return nil, err
		}
		files = []runFile{rf}

	case st.refineAtMerge:
		runCfg := st.cfg.Core
		runCfg.Seed = st.runSeed(runIndex)
		parts, err := core.RunParts(buf, runCfg)
		if err != nil {
			return nil, err
		}
		if !parts.Report.Sorted {
			return nil, fmt.Errorf("extsort: run %d formation produced unsorted parts", runIndex)
		}
		if v := st.cfg.Verifier; v != nil {
			if err := v.VerifyPartsRun(buf, parts); err != nil {
				return nil, fmt.Errorf("extsort: run %d failed verification: %w", runIndex, err)
			}
		}
		info.RemTilde = parts.Report.RemTilde
		info.WriteNanos = parts.Report.Total().WriteNanos()
		lis, err := writeRunFile(st.runPath(runIndex, "lis"), parts.LisKeys, &st.disk)
		if err != nil {
			return nil, err
		}
		rem, err := writeRunFile(st.runPath(runIndex, "rem"), parts.RemKeys, &st.disk)
		if err != nil {
			return nil, err
		}
		files = []runFile{lis, rem}

	default:
		runCfg := st.cfg.Core
		runCfg.Seed = st.runSeed(runIndex)
		res, err := core.Run(buf, runCfg)
		if err != nil {
			return nil, err
		}
		if !res.Report.Sorted {
			return nil, fmt.Errorf("extsort: run %d formation produced unsorted output", runIndex)
		}
		if v := st.cfg.Verifier; v != nil {
			if err := v.VerifyHybridRun(buf, res); err != nil {
				return nil, fmt.Errorf("extsort: run %d failed verification: %w", runIndex, err)
			}
		}
		info.RemTilde = res.Report.RemTilde
		info.WriteNanos = res.Report.Total().WriteNanos()
		rf, err := writeRunFile(st.runPath(runIndex, "run"), res.Keys, &st.disk)
		if err != nil {
			return nil, err
		}
		files = []runFile{rf}
	}

	st.stats.Runs++
	st.stats.RemTildeTotal += info.RemTilde
	st.stats.HybridWriteNanos += info.WriteNanos
	st.stats.PerRun = append(st.stats.PerRun, info)
	st.progress("form", 0, 0)
	return files, nil
}

func (st *state) runPath(runIndex int, kind string) string {
	return filepath.Join(st.dir, fmt.Sprintf("run-%d.%s", runIndex, kind))
}

func (st *state) progress(phase string, pass int, merged int64) {
	if st.cfg.OnProgress == nil {
		return
	}
	st.cfg.OnProgress(Progress{
		Phase:         phase,
		Records:       st.stats.Records,
		Runs:          st.stats.Runs,
		Pass:          pass,
		MergedRecords: merged,
		DiskBytes:     st.disk.cur,
	})
}
