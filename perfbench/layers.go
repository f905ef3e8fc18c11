package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"approxsort/internal/cluster"
	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/hybrid"
	"approxsort/internal/mem"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

// The traced replay re-runs a workload's jobs in this process through the
// public function of each layer, with the seeds sortd derives from the
// same request, and records a span around every call. Each replayed job
// yields three span trees sharing its job ID:
//
//   - "job" mirrors what sortd's worker executes for the request, call by
//     call (plan, run, audit); its duration is the traced per-job total,
//     and its self time is job.other_ms.
//   - "attribution" re-runs parts of the job with one layer toggled or in
//     isolation (no baseline, no sinks, the sort alone, the splitters,
//     one shard's external sort), so a layer's cost can be read as a
//     difference or a standalone time.
//   - "probe" times single-word approximate writes over the job's keys.
//
// Simulated quantities come back in the same jobLayers map; they are exact
// per seed. The replay also checks that it reproduces the service's
// modelled write latency for the job to the bit.

// jobLayers holds one replayed job's per-layer values by metric name.
type jobLayers map[string]float64

// replayer replays one workload's jobs.
type replayer struct {
	w      workload
	rec    *recorder
	b      memmodel.Backend
	pt     memmodel.Point
	shards []string // shard node URLs, in the coordinator's -shards order
	tmp    string
	hc     *http.Client
	drifts []string // descriptions of exact.drift counts
}

func newReplayer(w workload, rec *recorder, shards []string, tmp string, hc *http.Client) (*replayer, error) {
	b, err := memmodel.Get(backend)
	if err != nil {
		return nil, err
	}
	pt, err := b.Normalize(memmodel.MLC(halfWidth))
	if err != nil {
		return nil, err
	}
	return &replayer{w: w, rec: rec, b: b, pt: pt, shards: shards, tmp: tmp, hc: hc}, nil
}

// spaceLog records every approximate space a run creates, so the run's
// simulated MLC traffic can be read back after the layer returns.
type spaceLog struct {
	r      *replayer
	spaces []core.Space
}

func (l *spaceLog) newSpace(seed uint64) core.Space {
	s := l.r.b.NewApprox(l.r.pt, seed)
	l.spaces = append(l.spaces, s)
	return s
}

// traffic sums writes and P&V pulses over the logged spaces.
func (l *spaceLog) traffic() (writes, iters int) {
	for _, s := range l.spaces {
		st := s.Stats()
		writes += st.Writes
		iters += st.Iters
	}
	return writes, iters
}

// replay replays one job; svcWriteNanos is the modelled write latency the
// service reported for the same input.
func (r *replayer) replay(ctx context.Context, in *input, svcWriteNanos float64) (jobLayers, error) {
	job := jobID(r.w, in)
	var L jobLayers
	var writeNanos float64
	var err error
	if r.w.shards > 0 {
		L, writeNanos, err = r.sharded(ctx, job, in)
	} else {
		L, writeNanos, err = r.inmem(job, in)
	}
	if err != nil {
		return nil, fmt.Errorf("replaying %s: %w", job, err)
	}
	if writeNanos != svcWriteNanos {
		r.drift(L, "%s: replayed write_nanos %v, sortd reported %v", job, writeNanos, svcWriteNanos)
	}
	return L, nil
}

// drift counts a simulated quantity the replay failed to reproduce and
// keeps a description for the run's failure report.
func (r *replayer) drift(L jobLayers, format string, args ...any) {
	L["exact.drift"]++
	r.drifts = append(r.drifts, fmt.Sprintf(format, args...))
}

// jobID names a replayed job in its spans.
func jobID(w workload, in *input) string { return fmt.Sprintf("%s/%d", w.name, in.index) }

// inmem replays sortd's in-memory executor for an algorithm:auto request.
func (r *replayer) inmem(job string, in *input) (jobLayers, float64, error) {
	keys, n := in.keys, float64(len(in.keys))
	L := jobLayers{}
	coords := r.b.SeedCoords(r.pt)
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}

	root := r.rec.start("job", job, -1)
	pilot := &spaceLog{r: r}
	var plan core.Plan
	r.rec.do("core.plan", job, root, func() {
		plan, err = core.Planner{Config: core.Config{
			NewSpace: pilot.newSpace,
			Seed:     rng.Split(in.seed, append([]any{"sortd", "pilot", "auto"}, coords...)...),
		}}.PlanAuto(keys, sorts.AutoCandidates())
	})
	if err != nil {
		return nil, 0, err
	}
	r.rec.do("verify.plan", job, root, func() { err = verify.CheckPlan(len(keys), plan).Err() })
	if err != nil {
		return nil, 0, err
	}
	alg, err := sorts.New(plan.Algorithm, 0)
	if err != nil {
		return nil, 0, err
	}
	runSeed := rng.Split(in.seed, append(append([]any{"sortd", "run", alg.Name()}, coords...), len(keys))...)
	pilotWrites, pilotIters := pilot.traffic()
	runWrites, runIters := 0, 0

	var writeNanos float64
	sys := hybrid.New()
	if r.w.mode == "hybrid" || plan.UseHybrid {
		cfg := core.Config{Algorithm: alg, NewSpace: func(s uint64) core.Space { return r.b.NewApprox(r.pt, s) }, Seed: runSeed}
		served := cfg
		served.PreciseSink = sys.Region("precise", mlc.PreciseWriteNanos)
		served.ApproxSink = sys.Region("approx", r.b.ApproxWriteNanos(r.pt))
		var out core.Result
		r.rec.do("core.run", job, root, func() { out, err = core.Run(keys, served) })
		if err != nil {
			return nil, 0, err
		}
		r.rec.do("verify.run", job, root, func() {
			keep(verify.CheckRefineRun(keys, out, r.b.Identities(r.pt)).Err())
			keep(verify.CheckAlgorithmWrites(alg, out.Report).Err())
			keep(sys.Stats().Check())
		})
		r.rec.end(root)
		if err != nil {
			return nil, 0, err
		}
		total := out.Report.Total()
		writeNanos = total.WriteNanos()
		runWrites, runIters = total.Approx.Writes, total.Approx.Iters
		L["core.rem_tilde_ratio"] = out.Report.RemTildeRatio()
		L["core.approx_writes_per_key"] = float64(total.Approx.Writes) / n
		L["core.precise_writes_per_key"] = float64(total.Precise.Writes) / n

		attr := r.rec.start("attribution", job, -1)
		refine := cfg
		refine.SkipBaseline = true
		sinked := refine
		sys2 := hybrid.New()
		sinked.PreciseSink = sys2.Region("precise", mlc.PreciseWriteNanos)
		sinked.ApproxSink = sys2.Region("approx", r.b.ApproxWriteNanos(r.pt))
		run := func(c core.Config) func() {
			return func() {
				_, e := core.Run(keys, c)
				keep(e)
			}
		}
		tRefine := r.timed("core.refine_run", job, attr, run(refine))
		tBaseline := r.timed("core.run_baseline", job, attr, run(cfg))
		tSinked := r.timed("hybrid.run_sinked", job, attr, run(sinked))
		if err != nil {
			return nil, 0, err
		}
		L["core.refine_run_ms"] = tRefine
		L["core.baseline_ms"] = tBaseline - tRefine
		L["hybrid.sink_ms"] = tSinked - tRefine
		L["_run_ms"] = r.spanMS(root, "core.run")
		r.sortProbes(L, job, attr, alg, keys, runSeed)
		r.rec.end(attr)
	} else {
		p, space := precisePair(keys)
		space.SetSink(sys.Region("precise", mlc.PreciseWriteNanos))
		r.rec.do("sorts.run", job, root, func() {
			alg.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(runSeed)})
		})
		st := space.Stats()
		r.rec.do("verify.output", job, root, func() {
			keep(verify.CheckOutput(keys, mem.PeekAll(p.Keys)).Err()) //nolint:memescape // output extraction after the accounted run, as sortd's precise executor does
			keep(sys.Stats().Check())
		})
		r.rec.end(root)
		if err != nil {
			return nil, 0, err
		}
		writeNanos = st.WriteNanos
		L["core.precise_writes_per_key"] = float64(st.Writes) / n

		attr := r.rec.start("attribution", job, -1)
		r.sortProbes(L, job, attr, alg, keys, runSeed)
		r.rec.end(attr)
		L["hybrid.sink_ms"] = r.spanMS(root, "sorts.run") - L["sorts.precise_ms"]
		L["_run_ms"] = r.spanMS(root, "sorts.run")
	}
	L["hybrid.pcm_ns_per_key"] = sys.Clock() / n
	L["core.plan_ms"] = r.spanMS(root, "core.plan")
	L["mlc.pilot_words_per_key"] = float64(pilotWrites) / n
	r.mlcCounts(L, pilotWrites+runWrites, pilotIters+runIters, n)
	L["_approx_words"] = float64(pilotWrites + runWrites)
	L["_approx_parent_ms"] = ms(r.rec.spans[root].dur()) // the whole job
	r.wordProbes(L, job, keys, runSeed)
	return L, writeNanos, nil
}

// sortProbes times the chosen algorithm's Sort alone over an approximate
// pair (keys approximate, IDs precise) and over a precise pair, and
// reports the approximate sort's key writes next to the algorithm's
// declared profile.
func (r *replayer) sortProbes(L jobLayers, job string, parent int, alg sorts.Algorithm, keys []uint32, seed uint64) {
	n := len(keys)
	as, ps := r.b.NewApprox(r.pt, seed), mem.NewPreciseSpace()
	ap := sorts.Pair{Keys: as.Alloc(n), IDs: ps.Alloc(n)}
	mem.Load(ap.Keys, keys)
	mem.Load(ap.IDs, dataset.IDs(n))
	as.ResetStats()
	L["sorts.approx_ms"] = r.timed("sorts.approx", job, parent, func() {
		alg.Sort(ap, sorts.Env{KeySpace: as, IDSpace: ps, R: rng.New(seed)})
	})
	keyWrites := as.Stats().Writes

	pp, ps2 := precisePair(keys)
	L["sorts.precise_ms"] = r.timed("sorts.precise", job, parent, func() {
		alg.Sort(pp, sorts.Env{KeySpace: ps2, IDSpace: ps2, R: rng.New(seed)})
	})
	L["sorts.writes_per_key"] = float64(keyWrites) / float64(n)
	if prof, ok := sorts.ProfileOf(alg); ok {
		L["sorts.profile_writes_per_key"] = prof.WritesPerElement(n)
	}
}

// precisePair loads keys and identity IDs into one precise space and
// resets its statistics, as sortd's precise executor does.
func precisePair(keys []uint32) (sorts.Pair, *mem.PreciseSpace) {
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(len(keys)), IDs: space.Alloc(len(keys))}
	mem.Load(p.Keys, keys)
	mem.Load(p.IDs, dataset.IDs(len(keys)))
	space.ResetStats()
	return p, space
}

// wordProbes times single-word approximate writes over the job's keys:
// mem.ApproxSpace Set (which calls the MLC sampler) and Table.WriteWord
// alone, both at the workload's T.
func (r *replayer) wordProbes(L jobLayers, job string, keys []uint32, seed uint64) {
	words := mem.NewApproxSpaceAt(halfWidth, seed).Alloc(len(keys))
	setAll := func() {
		for i, k := range keys {
			words.Set(i, k)
		}
	}
	tbl := mlc.CachedTable(mlc.Approximate(halfWidth), 0, mlc.CalibrationSeed)
	src := rng.New(seed)
	writeAll := func() {
		for _, k := range keys {
			probeSink, _ = tbl.WriteWord(src, k)
		}
	}
	// An untimed pass first, so page faults on the fresh array and a cold
	// cache don't count against the layer.
	setAll()
	writeAll()
	probe := r.rec.start("probe", job, -1)
	set := r.timed("mem.approx_set", job, probe, setAll)
	ww := r.timed("mlc.write_word", job, probe, writeAll)
	r.rec.end(probe)
	perWord := 1e6 / float64(len(keys)) // ms per call → ns per word
	L["mem.approx_set_ns"] = set * perWord
	L["mlc.write_word_ns"] = ww * perWord
}

// probeSink keeps the WriteWord probe's results live.
var probeSink uint32

// mlcCounts reports the job's simulated MLC traffic.
func (r *replayer) mlcCounts(L jobLayers, writes, iters int, n float64) {
	L["mlc.words_per_key"] = float64(writes) / n
	if writes > 0 {
		L["mlc.iters_per_word"] = float64(iters) / float64(writes)
	}
}

// sharded replays a sharded job: Coordinator.Sort in this process against
// the running shard nodes, then shard 0's external sort on its key range
// with the configuration the shard derives.
func (r *replayer) sharded(ctx context.Context, job string, in *input) (jobLayers, float64, error) {
	L := jobLayers{}
	co, err := cluster.New(cluster.Config{
		Nodes:        r.shards,
		PlacementKey: "default",
		Job: cluster.JobParams{
			Algorithm: "auto", Mode: r.w.mode, Backend: backend, T: halfWidth,
			Seed: in.seed, RunSize: r.w.runSize, Formation: extsort.FormationReplacement,
		},
		TempDir:    r.tmp,
		WarmTables: true,
		HTTP:       r.hc,
		NewAuditor: func(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) },
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		return nil, 0, err
	}
	root := r.rec.start("job", job, -1)
	var out bytes.Buffer
	var stats cluster.Stats
	r.rec.do("cluster.sort", job, root, func() { stats, err = co.Sort(ctx, bytes.NewReader(in.body), &out) })
	if err != nil {
		return nil, 0, err
	}
	r.rec.do("verify.cluster", job, root, func() { err = verify.CheckClusterStats(stats).Err() })
	r.rec.end(root)
	if err != nil {
		return nil, 0, err
	}
	if err := checkStream(out.Bytes(), len(in.keys), in.sum); err != nil {
		return nil, 0, err
	}
	// Summed in sortd's order (shards, then the merge), so the float
	// total can match to the bit.
	var writeNanos float64
	var service []float64
	for _, sh := range stats.Shards {
		writeNanos += sh.WriteNanos
		ms, err := r.shardServiceMS(ctx, sh.Node, sh.JobID)
		if err != nil {
			return nil, 0, err
		}
		service = append(service, ms)
	}
	writeNanos += stats.MergeWriteNanos
	sortMS := r.spanMS(root, "cluster.sort")
	L["cluster.sort_ms"] = sortMS
	L["cluster.shard_service_max_ms"] = maxOf(service)
	L["cluster.shard_skew"] = maxOf(service) / mean(service)
	L["cluster.merge_ms"] = sortMS - maxOf(service)

	attr := r.rec.start("attribution", job, -1)
	var splitters []uint32
	L["cluster.splitter_ms"] = r.timed("cluster.splitter", job, attr, func() {
		rv := dataset.NewReservoir(4096, in.seed)
		rv.AddAll(in.keys)
		splitters, err = rv.Splitters(len(stats.Shards))
	})
	if err != nil {
		return nil, 0, err
	}
	if !slices.Equal(splitters, stats.Splitters) {
		r.drift(L, "%s: replayed splitters %v, the coordinator's %v", job, splitters, stats.Splitters)
	}
	if err := r.shardReplay(L, job, attr, in, stats); err != nil {
		return nil, 0, err
	}
	r.rec.end(attr)
	r.wordProbes(L, job, in.keys, in.seed)
	return L, writeNanos, nil
}

// shardReplay runs shard 0's external sort in this process with the
// configuration the shard node derives from the coordinator's submission.
func (r *replayer) shardReplay(L jobLayers, job string, parent int, in *input, stats cluster.Stats) error {
	part, err := cluster.NewPartitioner(stats.Splitters)
	if err != nil {
		return err
	}
	var raw []byte
	for _, k := range in.keys {
		if part.Route(k) == 0 {
			raw = binary.LittleEndian.AppendUint32(raw, k)
		}
	}
	records := int64(len(raw) / 4)
	if stats.Plan == nil || stats.Plan.Sharded == nil || stats.Plan.Sharded.PerShard == nil {
		return errors.New("sharded job has no per-shard plan")
	}
	per := stats.Plan.Sharded.PerShard
	alg, err := sorts.New("msd", 0) // streaming jobs resolve algorithm auto to the paper's default
	if err != nil {
		return err
	}
	shardSeed := rng.Split(in.seed, "cluster", "shard", 0)
	coords := r.b.SeedCoords(r.pt)
	log := &spaceLog{r: r}
	cfg := extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  log.newSpace,
			Seed:      rng.Split(shardSeed, append(append([]any{"sortd", "stream", alg.Name()}, coords...), uint64(records))...),
		},
		RunSize:       per.RunSize,
		FanIn:         per.FanIn,
		TempDir:       r.tmp,
		Formation:     extsort.FormationReplacement,
		RefineAtMerge: per.RefineAtMerge,
		Precise:       !per.UseHybrid,
		TotalRecords:  records,
		Omega:         memmodel.WriteCostRatio(r.b, r.pt),
		Verifier:      verify.Auditor{ID: r.b.Identities(r.pt)},
	}
	sc := verify.NewStreamChecker(io.Discard)
	var es extsort.Stats
	L["extsort.sort_stream_ms"] = r.timed("extsort.sort_stream", job, parent, func() {
		es, err = extsort.SortStream(bytes.NewReader(raw), sc, cfg)
	})
	if err != nil {
		return err
	}
	r.rec.do("verify.extsort", job, parent, func() {
		err = errors.Join(sc.Finish(es.Records), verify.CheckExtsortStats(es).Err())
	})
	if err != nil {
		return err
	}
	if got := es.HybridWriteNanos + es.MergeWriteNanos; es.Records != stats.Shards[0].Records || got != stats.Shards[0].WriteNanos {
		r.drift(L, "%s: shard 0 replay sorted %d records at %v write ns, the shard %d at %v",
			job, es.Records, got, stats.Shards[0].Records, stats.Shards[0].WriteNanos)
	}
	rn := float64(es.Records)
	L["extsort.runs"] = float64(es.Runs)
	L["extsort.run_len_over_m"] = es.MeanRunLength() / float64(es.RunSize)
	L["extsort.merge_passes"] = float64(es.MergePasses)
	L["extsort.merge_pass_bound"] = float64(mergePassBound(es.Runs, es.FanIn))
	L["extsort.spill_bytes_per_key"] = float64(es.DiskBytesWritten) / rn
	L["core.rem_tilde_ratio"] = float64(es.RemTildeTotal) / rn
	L["core.precise_writes_per_key"] = float64(es.MergeWrites) / rn
	writes, iters := log.traffic()
	L["core.approx_writes_per_key"] = float64(writes) / rn
	r.mlcCounts(L, writes, iters, rn)
	L["_approx_words"] = float64(writes)
	L["_approx_parent_ms"] = L["extsort.sort_stream_ms"]
	return nil
}

// mergePassBound is ⌈log_fanIn(runs)⌉: the merge levels a k-way merge of
// runs sorted runs needs (0 for a single run).
func mergePassBound(runs, fanIn int) int {
	passes := 0
	for runs > 1 && fanIn > 1 {
		runs = (runs + fanIn - 1) / fanIn
		passes++
	}
	return passes
}

// shardServiceMS reads a shard job's service time from its job record.
func (r *replayer) shardServiceMS(ctx context.Context, node, id string) (float64, error) {
	body, err := fetch(ctx, r.hc, http.MethodGet, node+"/v1/jobs/"+id, "", nil)
	if err != nil {
		return 0, err
	}
	var rec jobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return 0, err
	}
	return ms(rec.FinishedAt.Sub(rec.StartedAt)), nil
}

// timed records f as a span and returns its duration in milliseconds.
func (r *replayer) timed(name, job string, parent int, f func()) float64 {
	id := r.rec.do(name, job, parent, f)
	return ms(r.rec.spans[id].dur())
}

// spanMS returns the duration of the named child of parent, in ms.
func (r *replayer) spanMS(parent int, name string) float64 {
	for _, s := range r.rec.spans[parent:] {
		if s.Parent == parent && s.Name == name {
			return ms(s.dur())
		}
	}
	return 0
}
