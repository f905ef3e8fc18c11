// Command sortload is the closed-loop load generator for sortd: at each
// target concurrency level it keeps exactly that many synchronous jobs in
// flight, measures per-job latency, and emits a latency/throughput summary
// (p50/p90/p99, jobs/sec) to stdout and a JSON benchmark artifact.
//
// The generated job stream is deterministic: every request's dataset seed
// and run seed derive from the stream coordinates (base seed, concurrency
// level, worker index, request index) via rng.Split, never from time or
// arrival order — rerunning the same invocation replays the identical job
// stream, so two BENCH files differ only in timing, not in work.
//
// Usage:
//
//	go run ./cmd/sortload -addr http://127.0.0.1:8080 \
//	    [-conc 1,4] [-jobs 32] [-n 100000] [-alg auto] [-t 0.055] \
//	    [-backend pcm-mlc] [-dist uniform] [-seed 1] [-out BENCH_sortd.json]
//
// With -nodes the tool instead drives POST /v1/sort/sharded against a
// coordinator: one round per listed shard-count cap, reporting aggregate
// and per-node throughput so a 1-vs-3-node run shows the scaling curve:
//
//	go run ./cmd/sortload -addr http://127.0.0.1:8090 -nodes 1,3 \
//	    -jobs 4 -n 2000000 -runsize 262144 -out BENCH_cluster.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"approxsort/internal/rng"
	"approxsort/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sortload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// loadConfig is the parsed invocation.
type loadConfig struct {
	Addr   string  `json:"addr"`
	Levels []int   `json:"concurrency_levels,omitempty"`
	Jobs   int     `json:"jobs_per_level"`
	N      int     `json:"n"`
	Dist   string  `json:"dist"`
	Alg    string  `json:"algorithm"`
	Bits   int     `json:"bits"`
	Mode    string  `json:"mode"`
	Backend string  `json:"backend,omitempty"`
	T       float64 `json:"t"`
	Seed    uint64  `json:"seed"`
	// Stream switches the generated jobs to POST /v1/sort/stream
	// (out-of-core external sorts over server-generated dataset streams);
	// RunSize is each streaming job's in-memory run budget.
	Stream  bool `json:"stream,omitempty"`
	RunSize int  `json:"run_size,omitempty"`
	// Nodes switches to the multi-node sweep: each entry is a shard-count
	// cap for one round of POST /v1/sort/sharded jobs against the
	// coordinator, so one invocation measures the same work at (say) 1
	// and 3 shards and reports per-node throughput and scaling.
	Nodes  []int  `json:"nodes,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	out    string
	client *http.Client
}

// levelSummary is one concurrency level's measured outcome.
type levelSummary struct {
	Concurrency int     `json:"concurrency"`
	Jobs        int     `json:"jobs"`
	Errors      int     `json:"errors"`
	Retries429  int     `json:"retries_429"`
	HybridJobs  int     `json:"hybrid_jobs"`
	PreciseJobs int     `json:"precise_jobs"`
	P50Millis   float64 `json:"p50_ms"`
	P90Millis   float64 `json:"p90_ms"`
	P99Millis   float64 `json:"p99_ms"`
	MeanMillis  float64 `json:"mean_ms"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	WallMillis  float64 `json:"wall_ms"`
}

// shardSummary is one shard-count round's measured outcome in the
// multi-node sweep.
type shardSummary struct {
	// ShardCap is the requested max_shards; Shards the fan-out the
	// planner actually chose (identical across the round's jobs — the
	// stream is deterministic).
	ShardCap int `json:"shard_cap"`
	Shards   int `json:"shards"`
	Jobs     int `json:"jobs"`
	Errors   int `json:"errors"`
	// Verified counts jobs whose full cross-shard audit chain passed.
	Verified   int     `json:"verified"`
	MeanMillis float64 `json:"mean_ms"`
	// RecordsPerSec is the round's aggregate sort throughput; PerNode
	// divides by the fan-out — flat PerNode across rounds is linear
	// scaling. Speedup is this round's throughput over the first
	// round's.
	RecordsPerSec float64 `json:"records_per_sec"`
	PerNode       float64 `json:"records_per_sec_per_node"`
	Speedup       float64 `json:"speedup"`
}

// benchReport is the BENCH_sortd.json / BENCH_cluster.json schema.
type benchReport struct {
	Tool    string         `json:"tool"`
	Config  loadConfig     `json:"config"`
	Levels  []levelSummary `json:"levels,omitempty"`
	Sharded []shardSummary `json:"sharded,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sortload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", "http://127.0.0.1:8080", "sortd base URL")
	conc := fs.String("conc", "1,4", "comma-separated target concurrency levels")
	jobs := fs.Int("jobs", 32, "jobs per concurrency level")
	n := fs.Int("n", 100000, "keys per job (generated server-side)")
	dist := fs.String("dist", "uniform", "dataset kind: uniform|sorted|reverse|nearlysorted|fewdistinct|zipf")
	alg := fs.String("alg", "auto", "algorithm: auto (registry-selected) or a registered name — see GET /v1/algorithms (quicksort|mergesort|lsd|msd|onesweep-lsd)")
	bits := fs.Int("bits", 0, "radix digit width (0 = the algorithm's registered default)")
	mode := fs.String("mode", "auto", "execution mode: auto|hybrid|precise")
	backend := fs.String("backend", "", "memory backend (see GET /v1/backends; empty = server default pcm-mlc)")
	tFlag := fs.Float64("t", 0.055, "target half-width T (pcm-mlc only; ignored for other backends)")
	seed := fs.Uint64("seed", 1, "base seed for the deterministic job stream")
	stream := fs.Bool("stream", false, "drive POST /v1/sort/stream (out-of-core external sorts) instead of /v1/sort")
	runSize := fs.Int("runsize", 0, "streaming jobs' in-memory run budget in records (0 = server default)")
	nodes := fs.String("nodes", "", "comma-separated shard-count caps for the multi-node sweep (drives POST /v1/sort/sharded)")
	tenant := fs.String("tenant", "sortload", "tenant identity for sharded jobs (placement + quota)")
	out := fs.String("out", "BENCH_sortd.json", "benchmark artifact path")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	levels, err := parseLevels(*conc)
	if err != nil {
		return err
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1, got %d", *jobs)
	}
	if *n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", *n)
	}
	cfg := loadConfig{
		Addr: strings.TrimRight(*addr, "/"), Levels: levels, Jobs: *jobs,
		N: *n, Dist: *dist, Alg: *alg, Bits: *bits, Mode: *mode,
		Backend: *backend, T: *tFlag, Seed: *seed,
		Stream: *stream, RunSize: *runSize, Tenant: *tenant, out: *out,
		client: &http.Client{Timeout: *timeout},
	}
	if *nodes != "" {
		if cfg.Nodes, err = parseLevels(*nodes); err != nil {
			return fmt.Errorf("-nodes: %v", err)
		}
		cfg.Levels = nil // the sweep axis is shard caps, not client concurrency
	}
	if (cfg.Stream || cfg.Nodes != nil) && cfg.Dist == "nearlysorted" {
		return fmt.Errorf("nearlysorted input is not streamable")
	}
	// t is the pcm-mlc half-width; the server rejects it for other
	// backends, whose operating points come from their schema defaults.
	if cfg.Backend != "" && cfg.Backend != "pcm-mlc" {
		cfg.T = 0
	}
	if cfg.Nodes != nil {
		return driveSharded(cfg, stdout)
	}
	return drive(cfg, stdout)
}

func parseLevels(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad concurrency level %q", part)
		}
		levels = append(levels, c)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("-conc names no levels")
	}
	return levels, nil
}

// buildRequests lays out the deterministic job stream for one concurrency
// level: requests[w][i] is worker w's i-th job. Jobs split across workers
// round-robin by index; every request's seeds are a pure function of
// (base seed, level, worker, index), so reruns and different worker
// interleavings replay identical work.
func buildRequests(cfg loadConfig, level int) [][]server.JobSpec {
	reqs := make([][]server.JobSpec, level)
	for j := 0; j < cfg.Jobs; j++ {
		w := j % level
		i := len(reqs[w])
		reqs[w] = append(reqs[w], server.JobSpec{Common: server.Common{
			Dataset: &server.DatasetSpec{
				Kind: cfg.Dist,
				N:    cfg.N,
				Seed: rng.Split(cfg.Seed, "sortload", "dataset", level, w, i),
			},
			Algorithm: cfg.Alg,
			Bits:      cfg.Bits,
			Mode:      cfg.Mode,
			Backend:   cfg.Backend,
			T:         cfg.T,
			Seed:      rng.Split(cfg.Seed, "sortload", "run", level, w, i),
		}})
	}
	return reqs
}

// jobOutcome is one completed request's measurement.
type jobOutcome struct {
	latency time.Duration
	mode    string
	retries int
	err     error
}

// drive runs every concurrency level and writes the report.
func drive(cfg loadConfig, stdout io.Writer) error {
	report := benchReport{Tool: "sortload", Config: cfg}
	for _, level := range cfg.Levels {
		summary, err := driveLevel(cfg, level)
		if err != nil {
			return err
		}
		report.Levels = append(report.Levels, summary)
		fmt.Fprintf(stdout,
			"conc=%-3d jobs=%-4d errors=%d  p50=%.1fms p90=%.1fms p99=%.1fms mean=%.1fms  %.2f jobs/s (hybrid %d / precise %d, 429 retries %d)\n",
			summary.Concurrency, summary.Jobs, summary.Errors,
			summary.P50Millis, summary.P90Millis, summary.P99Millis, summary.MeanMillis,
			summary.JobsPerSec, summary.HybridJobs, summary.PreciseJobs, summary.Retries429)
	}

	if cfg.out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	}
	return nil
}

// driveLevel keeps `level` workers in closed loop until their job lists
// drain, then summarizes.
func driveLevel(cfg loadConfig, level int) (levelSummary, error) {
	reqs := buildRequests(cfg, level)
	outcomes := make([][]jobOutcome, level)
	start := time.Now() //nolint:detrand // wall-clock by design: the load generator measures real throughput
	var wg sync.WaitGroup
	for w := 0; w < level; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, req := range reqs[w] {
				outcomes[w] = append(outcomes[w], postJob(cfg, req))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start) //nolint:detrand // wall-clock by design: real elapsed time is the benchmark output

	summary := levelSummary{Concurrency: level, WallMillis: float64(wall.Milliseconds())}
	var latencies []float64
	var sum float64
	for w := range outcomes {
		for _, o := range outcomes[w] {
			summary.Jobs++
			summary.Retries429 += o.retries
			if o.err != nil {
				summary.Errors++
				continue
			}
			ms := float64(o.latency) / float64(time.Millisecond)
			latencies = append(latencies, ms)
			sum += ms
			switch o.mode {
			case server.ModeHybrid:
				summary.HybridJobs++
			case server.ModePrecise:
				summary.PreciseJobs++
			}
		}
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		summary.P50Millis = quantile(latencies, 0.50)
		summary.P90Millis = quantile(latencies, 0.90)
		summary.P99Millis = quantile(latencies, 0.99)
		summary.MeanMillis = sum / float64(len(latencies))
	}
	if secs := wall.Seconds(); secs > 0 {
		summary.JobsPerSec = float64(summary.Jobs-summary.Errors) / secs
	}
	if summary.Errors == summary.Jobs {
		return summary, fmt.Errorf("concurrency %d: every job failed (first: %v)",
			level, firstError(outcomes))
	}
	return summary, nil
}

// postJob runs one synchronous job, retrying on 429 backpressure (the
// closed loop can still overrun the queue when the daemon serves other
// clients).
func postJob(cfg loadConfig, req server.JobSpec) jobOutcome {
	route := "/v1/sort?wait=1"
	if cfg.Stream {
		// Same deterministic coordinates, driven through the streaming
		// job class: the server generates the dataset as a stream and
		// runs the out-of-core external sort.
		route = "/v1/sort/stream?wait=1"
		req.RunSize = cfg.RunSize
	}
	body, err := json.Marshal(req)
	if err != nil {
		return jobOutcome{err: err}
	}
	var out jobOutcome
	start := time.Now() //nolint:detrand // wall-clock by design: per-request latency measurement
	for {
		resp, err := cfg.client.Post(cfg.Addr+route, "application/json", bytes.NewReader(body))
		if err != nil {
			out.err = err
			return out
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			out.retries++
			if out.retries > 1000 {
				out.err = fmt.Errorf("giving up after %d 429s", out.retries)
				return out
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		var job server.Job
		decErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		out.latency = time.Since(start) //nolint:detrand // wall-clock by design: per-request latency measurement
		switch {
		case resp.StatusCode != http.StatusOK:
			out.err = fmt.Errorf("status %d", resp.StatusCode)
		case decErr != nil:
			out.err = decErr
		case job.Status != server.StatusDone:
			out.err = fmt.Errorf("job %s: %s %s", job.ID, job.Status, job.Error)
		case job.Result == nil || !job.Result.Sorted:
			out.err = fmt.Errorf("job %s: result missing or unsorted", job.ID)
		case cfg.Stream && (!job.Result.Verified || job.Result.Extsort == nil):
			out.err = fmt.Errorf("job %s: streaming result missing extsort audit (verified=%v)",
				job.ID, job.Result.Verified)
		default:
			out.mode = job.Result.Mode
		}
		return out
	}
}

// driveSharded runs the multi-node sweep: one round of sharded sorts
// per -nodes entry, same deterministic job stream each round, so the
// rounds differ only in the shard-count cap. Per-node throughput staying
// flat while aggregate throughput grows with the cap is the linear-
// scaling signature the sweep exists to measure.
func driveSharded(cfg loadConfig, stdout io.Writer) error {
	report := benchReport{Tool: "sortload", Config: cfg}
	var base float64
	for _, cap := range cfg.Nodes {
		summary := shardSummary{ShardCap: cap}
		var sum float64
		start := time.Now() //nolint:detrand // wall-clock by design: the load generator measures real throughput
		for i := 0; i < cfg.Jobs; i++ {
			out, shards, verified := postShardedJob(cfg, cap, i)
			summary.Jobs++
			if out.err != nil {
				summary.Errors++
				continue
			}
			if verified {
				summary.Verified++
			}
			summary.Shards = shards
			sum += float64(out.latency) / float64(time.Millisecond)
		}
		wall := time.Since(start) //nolint:detrand // wall-clock by design: real elapsed time is the benchmark output
		done := summary.Jobs - summary.Errors
		if done > 0 {
			summary.MeanMillis = sum / float64(done)
		}
		if secs := wall.Seconds(); secs > 0 {
			summary.RecordsPerSec = float64(done) * float64(cfg.N) / secs
		}
		if summary.Shards > 0 {
			summary.PerNode = summary.RecordsPerSec / float64(summary.Shards)
		}
		if base == 0 && summary.RecordsPerSec > 0 {
			base = summary.RecordsPerSec
		}
		if base > 0 {
			summary.Speedup = summary.RecordsPerSec / base
		}
		if summary.Errors == summary.Jobs {
			return fmt.Errorf("shard cap %d: every job failed", cap)
		}
		report.Sharded = append(report.Sharded, summary)
		fmt.Fprintf(stdout,
			"nodes=%-2d shards=%-2d jobs=%-3d errors=%d verified=%d  mean=%.1fms  %.0f rec/s (%.0f rec/s/node, speedup %.2fx)\n",
			cap, summary.Shards, summary.Jobs, summary.Errors, summary.Verified,
			summary.MeanMillis, summary.RecordsPerSec, summary.PerNode, summary.Speedup)
	}

	if cfg.out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", cfg.out)
	}
	return nil
}

// postShardedJob runs one synchronous sharded sort and reports the
// fan-out the coordinator chose and whether the cross-shard audit chain
// verified.
func postShardedJob(cfg loadConfig, cap, i int) (jobOutcome, int, bool) {
	payload := server.JobSpec{
		Common: server.Common{
			Dataset: &server.DatasetSpec{
				Kind: cfg.Dist,
				N:    cfg.N,
				Seed: rng.Split(cfg.Seed, "sortload", "sharded", "dataset", cap, i),
			},
			Algorithm: cfg.Alg,
			Bits:      cfg.Bits,
			Mode:      cfg.Mode,
			Backend:   cfg.Backend,
			T:         cfg.T,
			Seed:      rng.Split(cfg.Seed, "sortload", "sharded", "run", cap, i),
		},
		External: server.External{RunSize: cfg.RunSize},
		Fleet:    server.Fleet{Tenant: cfg.Tenant, MaxShards: cap},
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return jobOutcome{err: err}, 0, false
	}
	var out jobOutcome
	start := time.Now() //nolint:detrand // wall-clock by design: per-request latency measurement
	for {
		resp, err := cfg.client.Post(cfg.Addr+"/v1/sort/sharded?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			out.err = err
			return out, 0, false
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			out.retries++
			if out.retries > 1000 {
				out.err = fmt.Errorf("giving up after %d 429s", out.retries)
				return out, 0, false
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var job server.Job
		decErr := json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		out.latency = time.Since(start) //nolint:detrand // wall-clock by design: per-request latency measurement
		switch {
		case resp.StatusCode != http.StatusOK:
			out.err = fmt.Errorf("status %d", resp.StatusCode)
		case decErr != nil:
			out.err = decErr
		case job.Status != server.StatusDone:
			out.err = fmt.Errorf("job %s: %s %s", job.ID, job.Status, job.Error)
		case job.Result == nil || job.Result.Cluster == nil:
			out.err = fmt.Errorf("job %s: result missing cluster ledger", job.ID)
		case !job.Result.Verified:
			out.err = fmt.Errorf("job %s: cross-shard audit chain not verified", job.ID)
		default:
			out.mode = job.Result.Mode
			return out, len(job.Result.Cluster.Shards), job.Result.Cluster.Verified
		}
		return out, 0, false
	}
}

// quantile returns the q-quantile of sorted values by nearest-rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func firstError(outcomes [][]jobOutcome) error {
	for _, ws := range outcomes {
		for _, o := range ws {
			if o.err != nil {
				return o.err
			}
		}
	}
	return nil
}
