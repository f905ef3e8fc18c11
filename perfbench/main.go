// Command perfbench is the repository's layered benchmark. It launches
// real sortd processes built from the checkout (perfbench/run.sh builds
// them), drives one workload in a closed loop, checks every output
// independently of sortd's own verdict, and prints the end-to-end metrics.
// With -trace 1 it instead replays the workload's jobs in this process
// through each layer's public functions, on the same inputs and seeds,
// and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 130, "failed": 0, "metrics": {"keys_per_s": {"value": 2.6e5, "unit": "1/s"}, ...}}
//
// Host-time metrics are wall-clock measurements on the machine that ran
// them; simulated metrics (modeled_write_ns_per_key and the simulated
// per-layer counts) are exact per seed, and the benchmark fails a run
// whose simulated numbers drift between repeated jobs, between sortd and
// the in-process replay, or between runs of the same build and seed.
//
// Usage, from the checkout root:
//
//	bash perfbench/run.sh --workload inmem-hybrid --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// backend and halfWidth are the memory model every workload runs:
	// pcm-mlc at T = 0.055, the paper's Figure 9 sweet spot.
	backend   = "pcm-mlc"
	halfWidth = 0.055
	// setupRepeats is how many times a run launches and warms its sortd
	// processes; setup_s is the median, and the last launch serves the run.
	setupRepeats = 3
)

// workload is one traffic mix.
type workload struct {
	name    string
	n       int    // keys per job
	pool    int    // distinct inputs per run, submitted round-robin
	clients int    // closed-loop clients
	workers int    // sortd -workers per process
	shards  int    // 0: one in-memory sortd; otherwise a coordinator over this many shard nodes
	mode    string // the request's mode
	runSize int    // sharded: the request's run_size
	replays int    // inputs replayed by the traced run
	// think is the upper end of a pseudo-random pause each client takes
	// between jobs when several clients share the server. Without it two
	// closed-loop clients with equal job lengths lock into one overlap
	// pattern for a whole run, and the latency distribution depends on
	// which pattern a run happens to fall into.
	think time.Duration
}

var workloads = []workload{
	{name: "inmem-hybrid", n: 50000, pool: 8, clients: 2, workers: 2, mode: "hybrid", replays: 4, think: 40 * time.Millisecond},
	{name: "inmem-auto", n: 50000, pool: 8, clients: 2, workers: 2, mode: "auto", replays: 4, think: 40 * time.Millisecond},
	{name: "sharded-auto", n: 500000, pool: 4, clients: 1, workers: 1, shards: 2, mode: "auto", runSize: 32768, replays: 2},
}

// metricDef names a reported metric, its unit and its kind.
type metricDef struct{ name, unit, kind string }

// Metric kinds: host-time quantities (and ratios of them) are wall-clock
// measurements; simulated quantities come from the memory model and are
// exact per seed; check quantities count verified or drifted results.
const (
	hostTime  = "host"
	simulated = "simulated"
	check     = "check"
)

// endToEnd are the metrics a run prints with -trace 0.
var endToEnd = []metricDef{
	{"keys_per_s", "1/s", hostTime},
	{"job_p50_ms", "ms", hostTime},
	{"job_tail_ms", "ms", hostTime},
	{"verified_ratio", "ratio", check},
	{"modeled_write_ns_per_key", "ns", simulated},
	{"setup_s", "s", hostTime},
	{"peak_rss_mib", "MiB", hostTime},
}

// perLayer are the metrics a run prints with -trace 1. Every workload
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"mlc.write_word_ns", "ns", hostTime},
	{"mlc.write_word_ns_share", "ratio", hostTime},
	{"mlc.iters_per_word", "count", simulated},
	{"mlc.words_per_key", "count", simulated},
	{"mlc.pilot_words_per_key", "count", simulated},
	{"mem.approx_set_ns", "ns", hostTime},
	{"mem.approx_set_ns_share", "ratio", hostTime},
	{"sorts.approx_ms", "ms", hostTime},
	{"sorts.approx_ms_share", "ratio", hostTime},
	{"sorts.precise_ms", "ms", hostTime},
	{"sorts.precise_ms_share", "ratio", hostTime},
	{"sorts.writes_per_key", "count", simulated},
	{"sorts.profile_writes_per_key", "count", simulated},
	{"core.plan_ms", "ms", hostTime},
	{"core.plan_ms_share", "ratio", hostTime},
	{"core.refine_run_ms", "ms", hostTime},
	{"core.refine_run_ms_share", "ratio", hostTime},
	{"core.baseline_ms", "ms", hostTime},
	{"core.baseline_ms_share", "ratio", hostTime},
	{"core.rem_tilde_ratio", "ratio", simulated},
	{"core.approx_writes_per_key", "count", simulated},
	{"core.precise_writes_per_key", "count", simulated},
	{"hybrid.sink_ms", "ms", hostTime},
	{"hybrid.sink_ms_share", "ratio", hostTime},
	{"hybrid.pcm_ns_per_key", "ns", simulated},
	{"verify.audit_ms", "ms", hostTime},
	{"verify.audit_ms_share", "ratio", hostTime},
	{"server.queue_wait_ms", "ms", hostTime},
	{"server.queue_wait_ms_share", "ratio", hostTime},
	{"server.service_ms", "ms", hostTime},
	{"server.service_ms_share", "ratio", hostTime},
	{"server.overhead_ms", "ms", hostTime},
	{"server.overhead_ms_share", "ratio", hostTime},
	{"extsort.sort_stream_ms", "ms", hostTime},
	{"extsort.sort_stream_ms_share", "ratio", hostTime},
	{"extsort.runs", "count", simulated},
	{"extsort.run_len_over_m", "ratio", simulated},
	{"extsort.merge_passes", "count", simulated},
	{"extsort.merge_pass_bound", "count", simulated},
	{"extsort.spill_bytes_per_key", "B", simulated},
	{"cluster.splitter_ms", "ms", hostTime},
	{"cluster.splitter_ms_share", "ratio", hostTime},
	{"cluster.sort_ms", "ms", hostTime},
	{"cluster.sort_ms_share", "ratio", hostTime},
	{"cluster.shard_service_max_ms", "ms", hostTime},
	{"cluster.shard_service_max_ms_share", "ratio", hostTime},
	{"cluster.shard_skew", "ratio", hostTime},
	{"cluster.merge_ms", "ms", hostTime},
	{"cluster.merge_ms_share", "ratio", hostTime},
	{"job.other_ms", "ms", hostTime},
	{"job.other_ms_share", "ratio", hostTime},
	{"trace.job_ms", "ms", hostTime},
	{"trace.overhead_ms", "ms", hostTime},
	{"trace.overhead_share", "ratio", hostTime},
	{"exact.drift", "count", check},
}

// runLenBound is replacement selection's expected run length over the
// memory budget M on random input (Knuth's snowplow argument).
const runLenBound = 2.0

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	sortd   string
	out     string
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: inmem-hybrid, inmem-auto or sharded-auto")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	sortd := fs.String("sortd", ".bench_build/perfbench/sortd", "sortd binary built from this checkout")
	out := fs.String("out", ".bench_build/perfbench", "directory for logs, traces and the exactness ledger")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sortd: *sortd, out: *out}
	for _, w := range workloads {
		if w.name == *name {
			cfg.w = w
		}
	}
	switch {
	case cfg.w.name == "":
		return config{}, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return config{}, fmt.Errorf("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("-trace must be 0 or 1")
	}
	if _, err := os.Stat(cfg.sortd); err != nil {
		return config{}, fmt.Errorf("sortd binary: %w", err)
	}
	return cfg, nil
}

// run executes one benchmark run and returns its result line. Progress
// and the host record go to log.
func run(ctx context.Context, cfg config, log io.Writer) (result, error) {
	w := cfg.w
	dir, err := os.MkdirTemp(cfg.out, "run-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		Timeout:   150 * time.Second,
	}
	defer hc.CloseIdleConnections()

	pool, err := makeInputs(w, cfg.seed)
	if err != nil {
		return result{}, err
	}

	// Set-up, repeated: launch, /healthz, table calibration at T. The
	// last fleet serves the run.
	var setups []float64
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		f, d, err = launch(ctx, hc, w, cfg.sortd, dir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	c := &client{hc: hc, base: f.front.url, w: w}

	// Warm-up, untimed: every pool input once. Its modelled write latency
	// is the reference every later job with the same input must repeat.
	warm := closedLoop(ctx, c, pool, w.clients, len(pool), time.Time{})
	c.expects = map[int]float64{}
	for _, o := range warm {
		if o.ok {
			c.expects[o.input] = o.rec.Result.WriteNanos
		}
	}
	if failed, reasons := tally(warm); failed > 0 {
		fmt.Fprintf(log, "perfbench: warm-up failures: %s\n", strings.Join(reasons, "; "))
		return result{Attempted: len(warm), Failed: failed, Metrics: map[string]metric{}}, nil
	}
	modeled := 0.0
	for _, in := range pool {
		modeled += c.expects[in.index] / float64(len(in.keys))
	}
	modeled /= float64(len(pool))

	if cfg.trace {
		return runTraced(ctx, cfg, log, dir, hc, f, c, pool, warm)
	}

	start := time.Now()
	outs := closedLoop(ctx, c, pool, w.clients, 0, start.Add(time.Duration(cfg.seconds)*time.Second))
	rss, err := f.peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	all := append(warm, outs...)
	failed, reasons := tally(all)
	var lat []float64
	keys := 0
	end := start
	for _, o := range outs {
		if o.ok {
			lat = append(lat, ms(o.latency))
			keys += o.keys
		}
		if o.end.After(end) {
			end = o.end
		}
	}
	tailMS, p, beyond, tailOK := tail(lat)
	drift, err := checkLedger(cfg, map[string]float64{"modeled_write_ns_per_key": modeled})
	if err != nil {
		return result{}, err
	}
	printHost(log, cfg, len(lat), p, beyond)
	if !tailOK {
		reasons = append(reasons, fmt.Sprintf("%d samples are too few for a tail above the median", len(lat)))
	}
	if drift > 0 {
		reasons = append(reasons, "modeled_write_ns_per_key drifted from an earlier run of this build and seed")
	}
	for _, r := range reasons {
		fmt.Fprintln(log, "perfbench: FAIL:", r)
	}

	vals := map[string]float64{
		"keys_per_s":               float64(keys) / end.Sub(start).Seconds(),
		"job_p50_ms":               median(lat),
		"job_tail_ms":              tailMS,
		"verified_ratio":           float64(len(all)-failed) / float64(len(all)),
		"modeled_write_ns_per_key": modeled,
		"setup_s":                  median(setups),
		"peak_rss_mib":             rss,
	}
	fmt.Fprintf(log, "perfbench: %s seed=%d: %d jobs in %.2fs (%s); job_tail_ms is p%d with %d samples beyond; set-ups %v s\n",
		w.name, cfg.seed, len(outs), end.Sub(start).Seconds(), routes(outs), p, beyond, setups)
	res := result{
		Correct:   failed == 0 && tailOK && drift == 0,
		Attempted: len(all),
		Failed:    failed,
		Metrics:   collect(log, endToEnd, vals),
	}
	return res, nil
}

// routes summarizes how sortd resolved the jobs: algorithm/mode counts.
func routes(outs []outcome) string {
	count := map[string]int{}
	for _, o := range outs {
		if r := o.rec.Result; o.ok {
			count[r.Algorithm+"/"+r.Mode]++
		}
	}
	var parts []string
	for k, n := range count { //nolint:detrand // sorted below
		parts = append(parts, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// collect builds the metrics map for defs and prints one line per metric.
func collect(log io.Writer, defs []metricDef, vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(log, "  %-36s %14.6g %-6s %s\n", d.name, vals[d.name], d.unit, d.kind)
	}
	return m
}

// hostInfo is recorded with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Samples    int    `json:"samples"`
	TailPct    int    `json:"tail_pct"`
	TailBeyond int    `json:"tail_samples_beyond"`
}

func host(cfg config, samples, pct, beyond int) hostInfo {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: model,
		GoVersion: runtime.Version(), Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Samples: samples, TailPct: pct, TailBeyond: beyond,
	}
}

func printHost(log io.Writer, cfg config, samples, pct, beyond int) {
	b, _ := json.Marshal(map[string]hostInfo{"host": host(cfg, samples, pct, beyond)})
	fmt.Fprintln(log, string(b))
}

// checkLedger compares simulated values with those an earlier run of the
// same build, workload and seed recorded, records any new ones, and
// returns the number that differ. Host-time values never enter it.
func checkLedger(cfg config, sim map[string]float64) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	h := sha256.New()
	for _, bin := range []string{cfg.sortd, self} {
		b, err := os.ReadFile(bin)
		if err != nil {
			return 0, fmt.Errorf("hashing the build: %w", err)
		}
		h.Write(b)
	}
	dir := filepath.Join(cfg.out, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%x.json", cfg.w.name, cfg.seed, h.Sum(nil)[:6]))
	prev := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	drift := 0
	for k, v := range sim {
		if old, ok := prev[k]; !ok {
			prev[k] = v
		} else if old != v {
			drift++
		}
	}
	b, err := json.Marshal(prev)
	if err != nil {
		return 0, err
	}
	return drift, os.WriteFile(path, b, 0o644)
}
