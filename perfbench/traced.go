package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runTraced is the -trace 1 run. An untimed end-to-end phase against the
// running fleet yields the server.* metrics from the job records; then the
// first w.replays pool inputs are replayed in this process with a span
// around every layer call, and the per-layer metrics are the medians over
// the replayed jobs.
func runTraced(ctx context.Context, cfg config, log io.Writer, dir string, hc *http.Client, f *fleet, c *client, pool []input, warm []outcome) (result, error) {
	w := cfg.w
	outs := closedLoop(ctx, c, pool, w.clients, 0, time.Now().Add(time.Duration(cfg.seconds)*time.Second/2))
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	var queue, service, overhead, lat []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		q, s, l := ms(o.rec.StartedAt.Sub(o.rec.EnqueuedAt)), ms(o.rec.FinishedAt.Sub(o.rec.StartedAt)), ms(o.latency)
		queue, service, lat = append(queue, q), append(service, s), append(lat, l)
		overhead = append(overhead, l-q-s)
	}
	all := append(warm, outs...)
	failed, reasons := tally(all)

	rec := newRecorder()
	rp, err := newReplayer(w, rec, f.shardURLs(), dir, hc)
	if err != nil {
		return result{}, err
	}
	jobs := map[string]jobLayers{}
	for i := 0; i < w.replays; i++ {
		L, err := rp.replay(ctx, &pool[i], c.expects[i])
		if err != nil {
			failed++
			reasons = append(reasons, err.Error())
			continue
		}
		jobs[jobID(w, &pool[i])] = L
	}
	attempted := len(all) + w.replays
	spanStats(rec.spans, jobs)

	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	vals := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, id := range ids {
			xs = append(xs, jobs[id][d.name])
		}
		if len(xs) > 0 {
			vals[d.name] = median(xs)
		}
	}
	svc, l := median(service), median(lat)
	vals["server.queue_wait_ms"], vals["server.queue_wait_ms_share"] = median(queue), div(median(queue), l)
	vals["server.service_ms"], vals["server.service_ms_share"] = svc, div(svc, l)
	vals["server.overhead_ms"], vals["server.overhead_ms_share"] = median(overhead), div(median(overhead), l)
	vals["trace.overhead_ms"] = vals["trace.job_ms"] - svc
	vals["trace.overhead_share"] = div(vals["trace.overhead_ms"], svc)

	sim := map[string]float64{}
	drift := 0.0
	for _, L := range jobs {
		drift += L["exact.drift"]
	}
	for _, d := range perLayer {
		if d.kind == simulated {
			sim[d.name] = vals[d.name]
		}
	}
	ledger, err := checkLedger(cfg, sim)
	if err != nil {
		return result{}, err
	}
	vals["exact.drift"] = drift + float64(ledger)
	reasons = append(reasons, rp.drifts...)
	if ledger > 0 {
		reasons = append(reasons, "simulated per-layer values differ from an earlier run of this build and seed")
	}

	_, p, beyond, _ := tail(lat)
	printHost(log, cfg, len(lat), p, beyond)
	for _, r := range reasons {
		fmt.Fprintln(log, "perfbench: FAIL:", r)
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d traced: %d untimed jobs (%s), %d replayed; bounds: sorts.writes_per_key %.4g vs profile %.4g, extsort.run_len_over_m %.4g vs ~%g, extsort.merge_passes %g vs %g\n",
		w.name, cfg.seed, len(outs), routes(outs), len(jobs), vals["sorts.writes_per_key"], vals["sorts.profile_writes_per_key"],
		vals["extsort.run_len_over_m"], runLenBound, vals["extsort.merge_passes"], vals["extsort.merge_pass_bound"])

	path, err := writeTrace(cfg, rec.spans, vals, host(cfg, len(lat), p, beyond))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "perfbench: spans and per-layer self times written to %s\n", path)
	return result{
		Correct:   failed == 0 && vals["exact.drift"] == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   collect(log, perLayer, vals),
	}, nil
}

// spanStats adds the span-derived values to each replayed job: the traced
// job total, the time no child span of the job covers, the summed audit
// time, and every share of a parent.
func spanStats(spans []span, jobs map[string]jobLayers) {
	self := selfTimes(spans)
	for i, s := range spans {
		L := jobs[s.Job]
		switch {
		case L == nil:
		case s.Parent == -1 && s.Name == "job":
			L["trace.job_ms"] = ms(s.dur())
			L["job.other_ms"] = ms(self[i])
		case strings.HasPrefix(s.Name, "verify."):
			L["verify.audit_ms"] += ms(s.dur())
		}
	}
	for _, L := range jobs {
		shares(L)
	}
}

// shares fills each timed metric's <name>_share: its value over the span
// its layer call sits in. In-memory jobs: the service's run ("_run_ms",
// core.Run or the sinked precise sort) for the baseline, refine and sink
// attributions, the job for everything else. Sharded jobs: the job for
// the coordinator's calls, cluster.sort_ms for the shards and the merge,
// the slowest shard's service time for the one-shard external sort.
// mem.approx_set_ns is weighed by the approximate words the parent wrote,
// and mlc.write_word_ns is a share of one approximate Set.
func shares(L jobLayers) {
	job := L["trace.job_ms"]
	for _, k := range []string{"core.plan_ms", "sorts.approx_ms", "sorts.precise_ms", "verify.audit_ms",
		"job.other_ms", "cluster.splitter_ms", "cluster.sort_ms"} {
		L[k+"_share"] = div(L[k], job)
	}
	for _, k := range []string{"core.refine_run_ms", "core.baseline_ms", "hybrid.sink_ms"} {
		L[k+"_share"] = div(L[k], L["_run_ms"])
	}
	for _, k := range []string{"cluster.shard_service_max_ms", "cluster.merge_ms"} {
		L[k+"_share"] = div(L[k], L["cluster.sort_ms"])
	}
	L["extsort.sort_stream_ms_share"] = div(L["extsort.sort_stream_ms"], L["cluster.shard_service_max_ms"])
	L["mem.approx_set_ns_share"] = div(L["mem.approx_set_ns"]*L["_approx_words"], L["_approx_parent_ms"]*1e6)
	L["mlc.write_word_ns_share"] = div(L["mlc.write_word_ns"], L["mem.approx_set_ns"])
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the run's spans, per-layer totals and self times (ms
// per replayed job) and metrics to a JSON file under the output directory.
func writeTrace(cfg config, spans []span, vals map[string]float64, h hostInfo) (string, error) {
	total, self := layerTimes(spans)
	jobs := 0
	for _, s := range spans {
		if s.Parent == -1 && s.Name == "job" {
			jobs++
		}
	}
	for k := range total {
		total[k] /= float64(max(jobs, 1))
		self[k] /= float64(max(jobs, 1))
	}
	doc := map[string]any{
		"host":                 h,
		"spans":                spans,
		"layer_total_ms":       total,
		"layer_self_ms":        self,
		"metrics":              vals,
		"run_len_over_m_bound": runLenBound,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.w.name, cfg.seed))
	return path, os.WriteFile(path, b, 0o644)
}
