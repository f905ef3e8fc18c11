package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"

	"approxsort/internal/experiments"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/server"
	"approxsort/internal/sorts"
	"approxsort/internal/spintronic"
	"approxsort/internal/verify"
)

// defaultSeed pins the whole grid. Change it only together with -update.
const defaultSeed = 1729

// relEps is the relative tolerance for simulated nanos/energy/rate
// metrics. The grid is bit-deterministic on one platform; the epsilon
// only absorbs cross-platform float association differences.
const relEps = 1e-9

// Grid sizes. Small enough that the full replay (plus the golden tests
// that run it) stays well inside a CI minute; large enough that every
// stage of every pipeline executes with a non-trivial remainder.
const (
	fig2Words  = 12000
	figN       = 2000
	spinN      = 800
	sortdN     = 1500
	sortdPilot = 200
	// Streaming and sharded rows: several runs per shard and an (M, B, ω)
	// plan that fans out over both shard nodes.
	sortdExtN    = 40000
	sortdRunSize = 4096
)

// goldenFile is the committed results/golden/regress.json layout.
type goldenFile struct {
	Seed    uint64          `json:"seed"`
	Metrics []verify.Metric `json:"metrics"`
}

// report is the machine-readable gate outcome.
type report struct {
	Seed    uint64          `json:"seed"`
	Pass    bool            `json:"pass"`
	Drifts  []verify.Drift  `json:"drifts"`
	Metrics []verify.Metric `json:"metrics"`
}

// serverJob mirrors the wire shape of a sortd job record.
type serverJob = server.Job

// collect replays the pinned grid and returns its metrics sorted by name.
func collect(seed uint64, workers int) ([]verify.Metric, error) {
	var ms []verify.Metric
	add := func(batch []verify.Metric, err error) error {
		if err != nil {
			return err
		}
		ms = append(ms, batch...)
		return nil
	}
	if err := add(collectFig2(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectFig4(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectRefineFigs(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectSpinFigs(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectOneSweep(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectMemristive(seed, workers)); err != nil {
		return nil, err
	}
	if err := add(collectSortd(seed)); err != nil {
		return nil, err
	}
	verify.SortMetrics(ms)
	return ms, nil
}

// gate loads the golden file and compares.
func gate(goldenPath string, seed uint64, metrics []verify.Metric) (*report, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading goldens (run with -update to create them): %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	if g.Seed != seed {
		return nil, fmt.Errorf("golden file was recorded at seed %d, this run used %d", g.Seed, seed)
	}
	drifts := verify.CompareMetrics(g.Metrics, metrics)
	if drifts == nil {
		drifts = []verify.Drift{}
	}
	return &report{Seed: seed, Pass: len(drifts) == 0, Drifts: drifts, Metrics: metrics}, nil
}

// collectFig2 gates the Figure 2 Monte-Carlo campaign at the Table 3 Ts.
func collectFig2(seed uint64, workers int) ([]verify.Metric, error) {
	var ms []verify.Metric
	for _, st := range mlc.SweepParallel(mlc.Precise(), []float64{0.03, 0.055, 0.1}, fig2Words, seed, workers) {
		p := fmt.Sprintf("fig2/T=%g", st.T)
		ms = append(ms,
			verify.Rel(p+"/avg_p", st.AvgP, relEps),
			verify.Rel(p+"/cell_error_rate", st.CellErrorRate, relEps),
			verify.Rel(p+"/word_error_rate", st.WordErrorRate, relEps),
			verify.Exact(p+"/word_writes", float64(st.WordWrites)),
		)
	}
	return ms, nil
}

// collectFig4 gates the Section 3 approximate-only study.
func collectFig4(seed uint64, workers int) ([]verify.Metric, error) {
	algs := []sorts.Algorithm{sorts.Quicksort{}, sorts.MSD{Bits: 6}}
	var ms []verify.Metric
	rows, err := experiments.Fig4(algs, []float64{0.03, 0.1}, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		p := fmt.Sprintf("fig4/%s/T=%g", row.Algorithm, row.T)
		ms = append(ms,
			verify.Rel(p+"/error_rate", row.ErrorRate, relEps),
			verify.Rel(p+"/rem_ratio", row.RemRatio, relEps),
			verify.Rel(p+"/write_reduction", row.WriteReduction, relEps),
		)
	}
	return ms, nil
}

// refineMetrics flattens one approx-refine row under a name prefix.
func refineMetrics(p string, row experiments.RefineRow) []verify.Metric {
	return []verify.Metric{
		verify.Rel(p+"/write_reduction", row.WriteReduction, relEps),
		verify.Rel(p+"/model_wr", row.ModelWR, relEps),
		verify.Rel(p+"/rem_ratio", row.RemTildeRatio, relEps),
		verify.Rel(p+"/approx_write_nanos", row.ApproxWriteNanos, relEps),
		verify.Rel(p+"/refine_write_nanos", row.RefineWriteNanos, relEps),
		verify.Rel(p+"/baseline_write_nanos", row.BaselineWriteNanos, relEps),
		verify.Rel(p+"/energy_saving", row.EnergySaving, relEps),
		verify.Exact(p+"/sorted", b2f(row.Sorted)),
	}
}

// collectRefineFigs gates subsets of Figures 9, 10 and 11.
func collectRefineFigs(seed uint64, workers int) ([]verify.Metric, error) {
	var ms []verify.Metric

	pair := []sorts.Algorithm{sorts.Quicksort{}, sorts.MSD{Bits: 6}}
	rows, err := experiments.Fig9(pair, []float64{0.03, 0.055}, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		ms = append(ms, refineMetrics(fmt.Sprintf("fig9/%s/T=%g", row.Algorithm, row.T), row)...)
	}

	rows, err = experiments.Fig10([]sorts.Algorithm{sorts.MSD{Bits: 6}}, 0.055, []int{500, figN}, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		ms = append(ms, refineMetrics(fmt.Sprintf("fig10/%s/n=%d", row.Algorithm, row.N), row)...)
	}

	roster := []sorts.Algorithm{sorts.Quicksort{}, sorts.Mergesort{}, sorts.LSD{Bits: 4}, sorts.MSD{Bits: 6}}
	rows, err = experiments.Fig11(roster, 0.055, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		ms = append(ms, refineMetrics("fig11/"+row.Algorithm, row)...)
	}
	return ms, nil
}

// collectSpinFigs gates subsets of the Appendix A spintronic studies
// (Figures 12 and 13) at the two harshest operating points.
func collectSpinFigs(seed uint64, workers int) ([]verify.Metric, error) {
	algs := []sorts.Algorithm{sorts.MSD{Bits: 6}}
	cfgs := spintronic.Presets()[2:] // 33% and 50% energy-saving points
	var ms []verify.Metric
	spinRows, err := experiments.Fig12(algs, cfgs, spinN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range spinRows {
		p := fmt.Sprintf("fig12/%s/save=%g", row.Algorithm, row.Saving)
		ms = append(ms,
			verify.Rel(p+"/rem_ratio", row.RemRatio, relEps),
			verify.Rel(p+"/error_rate", row.ErrorRate, relEps),
		)
	}
	rows, err := experiments.Fig13(algs, cfgs, spinN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		p := fmt.Sprintf("fig13/%s/save=%g", row.Algorithm, row.Saving)
		ms = append(ms,
			verify.Rel(p+"/energy_saving", row.EnergySaving, relEps),
			verify.Rel(p+"/approx_energy", row.ApproxEnergy, relEps),
			verify.Rel(p+"/refine_energy", row.RefineEnergy, relEps),
			verify.Rel(p+"/rem_ratio", row.RemTildeRatio, relEps),
			verify.Exact(p+"/sorted", b2f(row.Sorted)),
		)
	}
	return ms, nil
}

// collectOneSweep gates the write-combining radix on the Figure 9 grid —
// new golden rows beside (never replacing) the pre-registry fig9 set.
// Every row passed verify.CheckAlgorithmWrites, so a golden match also
// certifies the 2-writes-per-element-per-pass structural identity.
func collectOneSweep(seed uint64, workers int) ([]verify.Metric, error) {
	var ms []verify.Metric
	rows, err := experiments.Fig9([]sorts.Algorithm{sorts.OneSweepLSD{Bits: 8}}, []float64{0.03, 0.055}, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		ms = append(ms, refineMetrics(fmt.Sprintf("fig9/%s/T=%g", row.Algorithm, row.T), row)...)
	}
	return ms, nil
}

// collectMemristive gates the memristive backend: approx-refine and
// sort-only rows at the two harsher presets, exercising the backend's
// retain-old-value corruption, fixed write latency and half-latency
// reads under the full identity checker.
func collectMemristive(seed uint64, workers int) ([]verify.Metric, error) {
	algs := []sorts.Algorithm{sorts.MSD{Bits: 6}, sorts.OneSweepLSD{Bits: 8}}
	pts := memmodel.MemristivePresets()[1:] // scale 0.7/fail 1e-5 and scale 0.5/fail 1e-4
	var ms []verify.Metric
	rows, err := experiments.RefineGrid(algs, pts, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	pointLabel := func(pt memmodel.Point) string {
		scale, _ := pt.Param("current_scale")
		fail, _ := pt.Param("switch_fail_prob")
		return fmt.Sprintf("scale=%g,fail=%g", scale, fail)
	}
	for _, row := range rows {
		ms = append(ms, refineMetrics(fmt.Sprintf("memristive/refine/%s/%s", row.Algorithm, pointLabel(row.Point)), row)...)
	}
	sortRows, err := experiments.SortOnlyGrid([]sorts.Algorithm{sorts.MSD{Bits: 6}}, pts, figN, seed, workers)
	if err != nil {
		return nil, err
	}
	for _, row := range sortRows {
		p := fmt.Sprintf("memristive/sortonly/%s/%s", row.Algorithm, pointLabel(row.Point))
		ms = append(ms,
			verify.Rel(p+"/error_rate", row.ErrorRate, relEps),
			verify.Rel(p+"/rem_ratio", row.RemRatio, relEps),
			verify.Rel(p+"/write_reduction", row.WriteReduction, relEps),
		)
	}
	return ms, nil
}

// sortdJobs is the pinned service-level grid: one job per execution mode
// plus an auto-routed generated dataset, all served through the real HTTP
// stack so admission, planner routing, execution, verification and the
// job store are all under the gate. An empty route is POST /v1/sort.
func sortdJobs(seed uint64) []struct{ name, route, body string } {
	return []struct{ name, route, body string }{
		{"auto-reverse-inline", "", fmt.Sprintf(
			`{"keys":%s,"algorithm":"msd","mode":"auto","t":0.055,"seed":%d}`,
			reverseKeysJSON(256), seed)},
		{"auto-uniform-dataset", "", fmt.Sprintf(
			`{"dataset":{"kind":"uniform","n":%d,"seed":%d},"algorithm":"quicksort","mode":"auto","t":0.03,"seed":%d}`,
			sortdN, seed, seed)},
		{"hybrid-zipf", "", fmt.Sprintf(
			`{"dataset":{"kind":"zipf","n":%d,"seed":%d,"k":512,"s":1.2},"algorithm":"msd","mode":"hybrid","t":0.1,"seed":%d}`,
			sortdN, seed, seed)},
		{"precise-sorted", "", fmt.Sprintf(
			`{"dataset":{"kind":"sorted","n":%d},"algorithm":"mergesort","mode":"precise","seed":%d}`,
			sortdN, seed)},
		{"hybrid-onesweep", "", fmt.Sprintf(
			`{"dataset":{"kind":"zipf","n":%d,"seed":%d,"k":512,"s":1.2},"algorithm":"onesweep-lsd","mode":"hybrid","t":0.1,"seed":%d}`,
			sortdN, seed, seed)},
		{"memristive-hybrid-msd", "", fmt.Sprintf(
			`{"dataset":{"kind":"uniform","n":%d,"seed":%d},"algorithm":"msd","mode":"hybrid","backend":"memristive","seed":%d}`,
			sortdN, seed, seed)},
		{"memristive-auto", "", fmt.Sprintf(
			`{"dataset":{"kind":"uniform","n":%d,"seed":%d},"algorithm":"msd","mode":"auto","backend":"memristive","seed":%d}`,
			sortdN, seed, seed)},
		{"auto-algorithm-fewdistinct", "", fmt.Sprintf(
			`{"dataset":{"kind":"fewdistinct","n":%d,"seed":%d},"algorithm":"auto","mode":"auto","t":0.055,"seed":%d}`,
			sortdN, seed, seed)},
		{"auto-stream-dataset", "/stream", fmt.Sprintf(
			`{"dataset":{"kind":"uniform","n":%d,"seed":%d},"run_size":%d,"mode":"auto","t":0.055,"seed":%d}`,
			sortdExtN, seed, sortdRunSize, seed)},
		{"auto-sharded-dataset", "/sharded", fmt.Sprintf(
			`{"dataset":{"kind":"uniform","n":%d,"seed":%d},"run_size":%d,"mode":"auto","t":0.055,"seed":%d}`,
			sortdExtN, seed, sortdRunSize, seed)},
	}
}

// collectSortd boots an in-process sortd coordinating two in-process
// shard nodes, runs the job grid synchronously and flattens each job
// result.
func collectSortd(seed uint64) ([]verify.Metric, error) {
	dir, err := os.MkdirTemp("", "regress-sortd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var shards []string
	for i := 0; i < 2; i++ {
		shard := server.New(server.Config{Workers: 1, StreamDir: dir})
		sts := httptest.NewServer(shard.Handler())
		defer sts.Close()
		defer shard.Shutdown(context.Background())
		shards = append(shards, sts.URL)
	}
	srv := server.New(server.Config{Workers: 1, PilotSize: sortdPilot, StreamDir: dir, ShardNodes: shards})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var ms []verify.Metric
	for _, j := range sortdJobs(seed) {
		job, err := post(ts, j.route, j.body)
		if err != nil {
			return nil, fmt.Errorf("sortd job %s: %w", j.name, err)
		}
		if job.Status != server.StatusDone || job.Result == nil {
			return nil, fmt.Errorf("sortd job %s: status %q, error %q", j.name, job.Status, job.Error)
		}
		p := "sortd/" + j.name
		switch j.route {
		case "/stream":
			ms = append(ms, streamMetrics(p, job.Result)...)
		case "/sharded":
			m, err := shardedMetrics(p, job.Result)
			if err != nil {
				return nil, fmt.Errorf("sortd job %s: %w", j.name, err)
			}
			ms = append(ms, m...)
		default:
			ms = append(ms, sortMetrics(p, job.Result)...)
		}
	}
	return ms, nil
}

// sortMetrics flattens an in-memory job result.
func sortMetrics(p string, r *server.JobResult) []verify.Metric {
	return []verify.Metric{
		verify.Exact(p+"/mode_hybrid", modeHybrid(r)),
		verify.Exact(p+"/n", float64(r.N)),
		verify.Exact(p+"/rem", float64(r.Rem)),
		verify.Exact(p+"/writes_approx", float64(r.Writes.Approx)),
		verify.Exact(p+"/writes_precise", float64(r.Writes.Precise)),
		verify.Exact(p+"/writes_baseline", float64(r.Writes.Baseline)),
		verify.Rel(p+"/predicted_wr", r.PredictedWR, relEps),
		verify.Rel(p+"/actual_wr", r.ActualWR, relEps),
		verify.Rel(p+"/write_nanos", r.WriteNanos, relEps),
		verify.Rel(p+"/pcm_nanos", r.PCMNanos, relEps),
		verify.Exact(p+"/sorted", b2f(r.Sorted)),
		verify.Exact(p+"/verified", b2f(r.Verified)),
	}
}

// streamMetrics flattens a streaming job result: the external geometry
// the planner chose and the ledger it produced.
func streamMetrics(p string, r *server.JobResult) []verify.Metric {
	e := r.Extsort
	return []verify.Metric{
		verify.Exact(p+"/mode_hybrid", modeHybrid(r)),
		verify.Exact(p+"/n", float64(r.N)),
		verify.Exact(p+"/rem", float64(r.Rem)),
		verify.Exact(p+"/writes_precise", float64(r.Writes.Precise)),
		verify.Rel(p+"/write_nanos", r.WriteNanos, relEps),
		verify.Exact(p+"/records", float64(e.Records)),
		verify.Exact(p+"/runs", float64(e.Runs)),
		verify.Exact(p+"/merge_passes", float64(e.MergePasses)),
		verify.Exact(p+"/run_size", float64(e.RunSize)),
		verify.Exact(p+"/fan_in", float64(e.FanIn)),
		verify.Exact(p+"/refine_at_merge", b2f(e.RefineAtMerge)),
		verify.Exact(p+"/disk_bytes_written", float64(e.DiskBytesWritten)),
		verify.Rel(p+"/formation_write_nanos", e.FormationWriteNanos, relEps),
		verify.Rel(p+"/merge_write_nanos", e.MergeWriteNanos, relEps),
		verify.Rel(p+"/plan_total_writes", e.Plan.TotalWrites, relEps),
		verify.Exact(p+"/sorted", b2f(r.Sorted)),
		verify.Exact(p+"/verified", b2f(r.Verified)),
	}
}

// shardedMetrics flattens a sharded job result. Only fields that do not
// depend on which port hosts which shard are gated: node URLs and job IDs
// are not, shard indices (range order) are.
func shardedMetrics(p string, r *server.JobResult) ([]verify.Metric, error) {
	c := r.Cluster
	if c == nil || c.Plan == nil || c.Plan.Sharded == nil || c.Plan.Sharded.PerShard == nil {
		return nil, fmt.Errorf("sharded result carries no plan")
	}
	sp := c.Plan.Sharded
	ms := []verify.Metric{
		verify.Exact(p+"/mode_hybrid", modeHybrid(r)),
		verify.Exact(p+"/records", float64(c.Records)),
		verify.Exact(p+"/merge_writes", float64(c.MergeWrites)),
		verify.Rel(p+"/write_nanos", r.WriteNanos, relEps),
		verify.Exact(p+"/plan_rem", float64(c.Plan.PredictedRem)),
		verify.Exact(p+"/plan_shards", float64(sp.Shards)),
		verify.Exact(p+"/plan_run_size", float64(sp.PerShard.RunSize)),
		verify.Exact(p+"/plan_hybrid", b2f(sp.PerShard.UseHybrid)),
		verify.Exact(p+"/plan_refine_at_merge", b2f(sp.PerShard.RefineAtMerge)),
		verify.Exact(p+"/verified", b2f(r.Verified)),
	}
	for i, sh := range c.Shards {
		q := fmt.Sprintf("%s/shard%d", p, i)
		ms = append(ms,
			verify.Exact(q+"/records", float64(sh.Records)),
			verify.Exact(q+"/runs", float64(sh.Runs)),
			verify.Exact(q+"/merge_passes", float64(sh.MergePasses)),
			verify.Rel(q+"/write_nanos", sh.WriteNanos, relEps),
		)
	}
	return ms, nil
}

func modeHybrid(r *server.JobResult) float64 {
	return b2f(r.Mode == server.ModeHybrid)
}

// reverseKeysJSON renders [n, n-1, ..., 1] as a JSON array.
func reverseKeysJSON(n int) string {
	buf := []byte{'['}
	for i := n; i >= 1; i-- {
		if i < n {
			buf = append(buf, ',')
		}
		buf = append(buf, []byte(fmt.Sprint(i))...)
	}
	return string(append(buf, ']'))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
