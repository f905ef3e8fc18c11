// Package server is the serving subsystem behind the sortd daemon: an
// HTTP/JSON facade over the approx-refine machinery, turning the paper's
// Section 4.3 switch decision into a per-request routing choice.
//
// Request flow:
//
//	POST /v1/sort ─► bounded queue (parallel.Pool) ─► worker ─► executor
//	                   │ full → 429 + Retry-After        │
//	                   ▼                                 ▼
//	              /metrics registry ◄──── counters, latency histograms
//
// Each job materializes its input (inline keys or a dataset spec), runs
// the planner pilot when the mode is "auto", executes either the hybrid
// approx-refine pipeline or the precise-only sort, and records the
// planner verdict, write accounting, predicted vs. actual write
// reduction, and the simulated PCM clock. GET /v1/jobs/{id} serves the
// job record; GET /healthz reports readiness and flips to 503 while
// draining; GET /metrics renders Prometheus text, including the shared
// mlc.TableCache hit/miss counters that prove concurrent jobs at the same
// T reuse one calibrated transition table.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/extsort"
	"approxsort/internal/mlc"
	"approxsort/internal/parallel"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the worker-pool size (0 = one per CPU).
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (default 64). A full queue rejects with 429.
	QueueDepth int
	// PilotSize overrides the planner sample size (0 = planner default).
	PilotSize int
	// MaxN bounds accepted input sizes (default 8M keys).
	MaxN int
	// RetainJobs caps how many finished job records are kept for
	// GET /v1/jobs (default 4096; oldest evicted first). A record keeps
	// its result, never its input: an in-memory return_keys job holds its
	// sorted output (about 4n bytes for n keys), any other record under
	// 1 KB. Retained outputs still scale as RetainJobs × 4n.
	RetainJobs int
	// MaxBodyBytes bounds a request body (default 64 MB, enough for a
	// maxReturnKeys inline array with JSON overhead).
	MaxBodyBytes int64
	// StreamDir is where streaming jobs keep their spooled input, run
	// spill, and downloadable output (default: the OS temp dir). Each job
	// gets its own subdirectory, removed when the job record is evicted.
	StreamDir string
	// MaxStreamBytes is the per-job disk quota for streaming jobs:
	// spooled input, live spill, and output are each held under it
	// (default 1 GiB). Requests may lower it per job, never raise it.
	MaxStreamBytes int64
	// ShardNodes are the shard sortd base URLs this instance coordinates
	// (cmd/sortd -shards). Empty disables POST /v1/sort/sharded.
	ShardNodes []string
	// TenantMaxInflight caps concurrent sharded sorts per tenant
	// (default 2); past it the endpoint rejects with 429 + Retry-After.
	TenantMaxInflight int
	// ShardSortTimeout bounds one sharded sort's whole fan-out — shard
	// submission, the blocking job waits, output copy and table relay —
	// with a deadline-bearing context (default 10m). Without it a hung
	// shard node would pin the job, its tenant slot and a worker forever;
	// graceful drain still lets in-flight fan-outs run to completion,
	// they just cannot outlive this budget.
	ShardSortTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 8 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.StreamDir == "" {
		c.StreamDir = os.TempDir()
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 1 << 30
	}
	if c.TenantMaxInflight <= 0 {
		c.TenantMaxInflight = 2
	}
	if c.ShardSortTimeout <= 0 {
		c.ShardSortTimeout = 10 * time.Minute
	}
	return c
}

// Server is the sortd serving core. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg  Config
	pool *parallel.Pool

	mu             sync.Mutex
	jobs           map[string]*Job
	order          []string // retained terminal jobs, oldest first
	seq            uint64
	tenantInflight map[string]int // sharded sorts inflight per tenant
	draining       atomic.Bool
	inflight       atomic.Int64

	metrics      *Registry
	requests     *CounterVec   // route, code
	jobsTotal    *CounterVec   // backend, algorithm, mode, status
	jobLatency   *HistogramVec // backend, algorithm, mode
	queueRejects *Counter
	jobPanics    *Counter

	// External-sort (streaming job) counters.
	extsortRecords     *Counter
	extsortRuns        *Counter
	extsortMergePasses *Counter
	extsortSpillBytes  *Counter

	// Cluster (sharded job) counters.
	clusterShards  *Counter
	clusterRecords *Counter
	tenantRejects  *Counter

	// testHookBeforeExec, when non-nil, runs on the worker goroutine
	// before a job executes — the lifecycle tests use it to hold jobs
	// in-flight deterministically.
	testHookBeforeExec func(*Job)
}

// New returns a ready server; its workers are running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    parallel.NewPool(cfg.Workers, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		metrics: NewRegistry(),
	}
	m := s.metrics
	s.requests = m.CounterVec("sortd_requests_total",
		"HTTP requests by route and status code.", "route", "code")
	s.jobsTotal = m.CounterVec("sortd_jobs_total",
		"Completed jobs by memory backend, algorithm, resolved execution mode and status.",
		"backend", "algorithm", "mode", "status")
	s.jobLatency = m.HistogramVec("sortd_job_duration_seconds",
		"Job execution latency (dequeue to completion).",
		DefaultLatencyBuckets, "backend", "algorithm", "mode")
	s.queueRejects = m.Counter("sortd_queue_rejected_total",
		"Jobs rejected with 429 because the queue was full.")
	s.jobPanics = m.Counter("sortd_job_panics_total",
		"Jobs failed because their execution panicked (the daemon keeps serving).")
	s.extsortRecords = m.Counter("sortd_extsort_records_total",
		"Records sorted by completed streaming (external-sort) jobs.")
	s.extsortRuns = m.Counter("sortd_extsort_runs_total",
		"Level-0 runs formed by completed streaming jobs.")
	s.extsortMergePasses = m.Counter("sortd_extsort_merge_passes_total",
		"Merge passes executed by completed streaming jobs.")
	s.extsortSpillBytes = m.Counter("sortd_extsort_spill_bytes_total",
		"Bytes spilled to disk by completed streaming jobs (runs + intermediate merges).")
	s.clusterShards = m.Counter("sortd_cluster_shards_total",
		"Shard jobs fanned out by completed sharded sorts.")
	s.clusterRecords = m.Counter("sortd_cluster_records_total",
		"Records sorted by completed sharded (multi-node) sorts.")
	s.tenantRejects = m.Counter("sortd_tenant_rejected_total",
		"Sharded sorts rejected with 429 by the per-tenant inflight cap.")
	m.GaugeFunc("sortd_queue_depth", "Accepted jobs not yet started.",
		func() float64 { return float64(s.pool.Queued()) })
	m.GaugeFunc("sortd_queue_capacity", "Bounded queue capacity.",
		func() float64 { return float64(s.pool.Cap()) })
	m.GaugeFunc("sortd_jobs_inflight", "Jobs currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	m.GaugeFunc("sortd_draining", "1 while the server refuses new jobs and drains.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	// The shared transition-table cache is process-wide on purpose: every
	// job at the same (T, samples) draws noise through one calibrated
	// table. Exporting its counters makes the sharing observable — two
	// concurrent jobs at one T must show one miss, not two.
	tables := mlc.SharedTables()
	m.CounterFunc("sortd_mlc_table_cache_hits_total",
		"Shared MLC transition-table cache hits.", tables.Hits)
	m.CounterFunc("sortd_mlc_table_cache_misses_total",
		"Shared MLC transition-table cache misses (tables built).", tables.Misses)
	m.GaugeFunc("sortd_mlc_table_cache_size",
		"Calibrated transition tables resident in the shared cache.",
		func() float64 { return float64(tables.Len()) })
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort", s.handleSubmit(KindSort))
	mux.HandleFunc("POST /v1/sort/stream", s.handleSubmit(KindStream))
	mux.HandleFunc("POST /v1/sort/sharded", s.handleSubmit(KindSharded))
	mux.HandleFunc("GET /v1/tables", s.handleTablesGet)
	mux.HandleFunc("POST /v1/tables", s.handleTablesPost)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleJobOutput)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Shutdown drains: new jobs are refused (healthz flips to 503), queued and
// in-flight jobs run to completion, then Shutdown returns. A cancelled ctx
// abandons the wait (workers keep finishing in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sortd: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics exposes the registry (for embedding hosts and tests).
func (s *Server) Metrics() *Registry { return s.metrics }

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, route string, code int, v any) {
	s.requests.With(route, fmt.Sprintf("%d", code)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handleSubmit is the admission path of the sort route for a job kind:
// decode and validate the JobSpec, spool an upload, claim a sharded
// tenant slot, then record and enqueue the job. A full queue is 429;
// ?wait blocks until the job is terminal.
func (s *Server) handleSubmit(kind string) http.HandlerFunc {
	route := "/v1/sort"
	if kind != KindSort {
		route += "/" + kind
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if kind == KindSharded && len(s.cfg.ShardNodes) == 0 {
			s.writeJSON(w, route, http.StatusNotImplemented,
				apiError{Error: "no shard fleet configured (start sortd with -shards)"})
			return
		}
		if s.draining.Load() {
			s.writeJSON(w, route, http.StatusServiceUnavailable, apiError{Error: "draining"})
			return
		}
		spec := &JobSpec{}
		// The out-of-core routes take the keys as a raw body, parameters
		// in the query. Anything else is the JSON form — defaulting to
		// JSON means a curl -d without an explicit Content-Type fails
		// loudly on decode instead of sorting the JSON text as key bytes.
		upload := kind != KindSort && strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")
		if upload {
			if err := cluster.DecodeQuery(r.URL.Query(), spec.fields(kind)); err != nil {
				s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
				return
			}
		} else {
			body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
			var err error
			if kind == KindSort {
				err = decodeSortBody(body, min(r.ContentLength, s.cfg.MaxBodyBytes), spec)
			} else {
				err = decodeSpec(body, kind, spec)
			}
			if err != nil {
				var tooLarge *http.MaxBytesError
				code := http.StatusBadRequest
				if errors.As(err, &tooLarge) {
					code = http.StatusRequestEntityTooLarge
				}
				s.writeJSON(w, route, code, apiError{Error: "bad request: " + err.Error()})
				return
			}
		}
		if err := spec.validate(kind, s.cfg, upload); err != nil {
			s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}

		job := &Job{
			Status:     StatusQueued,
			Kind:       kind,
			Algorithm:  spec.Algorithm,
			Mode:       spec.Mode,
			Backend:    spec.Backend,
			T:          spec.T,
			EnqueuedAt: time.Now().UTC(), //nolint:detrand // wall-clock by design: job timestamps are service metadata, not simulated results
			done:       make(chan struct{}),
			spec:       spec,
		}
		// Per-tenant backpressure: the coordinator fans one job across the
		// whole fleet, so a tenant's concurrent sharded jobs are capped
		// before the queue, and the shards' own 429s propagate back
		// through the coordinator's submit retries.
		if kind == KindSharded && !s.acquireTenant(spec.Tenant) {
			s.tenantRejects.Inc()
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, route, http.StatusTooManyRequests,
				apiError{Error: fmt.Sprintf("tenant %s has %d sharded sorts inflight, retry later",
					spec.Tenant, s.cfg.TenantMaxInflight)})
			return
		}
		reject := func(code int, msg string) {
			if job.dir != "" {
				os.RemoveAll(job.dir)
			}
			if kind == KindSharded {
				s.releaseTenant(spec.Tenant)
			}
			s.writeJSON(w, route, code, apiError{Error: msg})
		}
		if kind == KindSort {
			job.N = len(spec.Keys)
			if spec.Dataset != nil {
				job.N = spec.Dataset.N
			}
		} else {
			dir, err := os.MkdirTemp(s.cfg.StreamDir, "sortd-"+kind+"-")
			if err != nil {
				reject(http.StatusInternalServerError, "job dir: "+err.Error())
				return
			}
			job.dir = dir
			if upload {
				// Spool the upload before enqueueing: the body dies with
				// this handler, the job may run much later. The spool
				// counts against the job's quota like any other spill.
				bytes, err := spoolInput(filepath.Join(dir, "input.raw"),
					http.MaxBytesReader(w, r.Body, spec.MaxDiskBytes+1), spec.MaxDiskBytes)
				if err != nil {
					code := http.StatusBadRequest
					if errors.Is(err, extsort.ErrDiskQuota) {
						code = http.StatusRequestEntityTooLarge
					}
					reject(code, err.Error())
					return
				}
				if bytes == 0 {
					reject(http.StatusBadRequest, "input must have at least one key")
					return
				}
				job.records = bytes / 4
			} else {
				job.records = int64(spec.Dataset.N)
			}
			if job.records <= int64(^uint(0)>>1) {
				job.N = int(job.records)
			}
		}

		s.mu.Lock()
		s.seq++
		job.ID = fmt.Sprintf("job-%08d", s.seq)
		s.jobs[job.ID] = job
		s.mu.Unlock()

		if !s.pool.TrySubmit(func() { s.runJob(job) }) {
			s.mu.Lock()
			delete(s.jobs, job.ID)
			s.mu.Unlock()
			s.queueRejects.Inc()
			w.Header().Set("Retry-After", "1")
			reject(http.StatusTooManyRequests, "queue full, retry later")
			return
		}

		if r.URL.Query().Get("wait") != "" {
			s.awaitJob(w, r, route, job)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		s.writeJSON(w, route, http.StatusAccepted, s.snapshot(job))
	}
}

// runJob executes one job on a pool worker.
func (s *Server) runJob(job *Job) {
	if hook := s.testHookBeforeExec; hook != nil {
		hook(job)
	}
	s.inflight.Add(1)
	start := time.Now() //nolint:detrand // wall-clock by design: job latency is a service metric, not a simulated result
	s.mu.Lock()
	job.Status = StatusRunning
	job.StartedAt = start.UTC()
	s.mu.Unlock()

	res, err := s.execJob(job)

	elapsed := time.Since(start) //nolint:detrand // wall-clock by design: feeds the latency histogram only
	s.mu.Lock()
	// A terminal record keeps its result, never its input: the spec of
	// an inline job holds the decoded key array, which nothing reads
	// again and which would otherwise stay live for RetainJobs records.
	tenant := job.spec.Tenant
	job.spec = nil
	job.FinishedAt = time.Now().UTC() //nolint:detrand // wall-clock by design: job timestamps are service metadata
	mode := job.Mode
	if res != nil {
		mode = res.Mode
		job.Mode = res.Mode
		job.Result = res
	}
	if err != nil {
		job.Status = StatusFailed
		job.Error = err.Error()
	} else {
		job.Status = StatusDone
	}
	status := job.Status
	evicted := s.retainLocked(job)
	s.mu.Unlock()
	if err != nil && job.dir != "" {
		// A failed streaming job keeps its record but not its files.
		os.RemoveAll(job.dir)
	}
	for _, dir := range evicted {
		os.RemoveAll(dir)
	}

	s.inflight.Add(-1)
	if job.Kind == KindSharded {
		s.releaseTenant(tenant)
	}
	s.jobsTotal.With(job.Backend, job.Algorithm, mode, status).Inc()
	s.jobLatency.With(job.Backend, job.Algorithm, mode).Observe(elapsed.Seconds())
	close(job.done)
}

// execJob runs job's executor on the calling worker. A panic there fails
// the job instead of the process: its stack is logged, it is counted in
// sortd_job_panics_total, and runJob's terminal bookkeeping runs as for
// any other failure. A sharded job whose coordinator recovered a panic in
// a shard goroutine is counted there too.
func (s *Server) execJob(job *Job) (res *JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.jobPanics.Inc()
			slog.Error("sortd: job panicked", "job", job.ID, "panic", p, "stack", string(debug.Stack()))
			res, err = nil, fmt.Errorf("job panicked: %v", p)
		}
	}()
	switch job.Kind {
	case KindStream:
		return s.executeStream(job)
	case KindSharded:
		res, err = s.executeSharded(job)
		if shardPanicked(err) {
			s.jobPanics.Inc()
		}
		return res, err
	default:
		return execute(job.spec, s.cfg.PilotSize)
	}
}

// shardPanicked reports a sharded job failed by a panic that the cluster
// coordinator recovered in one of its shard goroutines: it counts in
// sortd_job_panics_total as a panic on the worker itself does.
func shardPanicked(err error) bool {
	var se *cluster.ShardError
	return errors.As(err, &se) && se.Stage == cluster.StagePanic
}

// retainLocked appends a terminal job to the retention ring, evicting the
// oldest records past the cap. It returns the evicted jobs' stream
// directories for the caller to remove outside the lock — eviction is the
// moment a streaming job's output stops being downloadable, so its disk
// state dies with its record. Caller holds s.mu.
func (s *Server) retainLocked(job *Job) (evictedDirs []string) {
	s.order = append(s.order, job.ID)
	for len(s.order) > s.cfg.RetainJobs {
		if old, ok := s.jobs[s.order[0]]; ok && old.dir != "" {
			evictedDirs = append(evictedDirs, old.dir)
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	return evictedDirs
}

// snapshot copies a job's public state under the store lock, so handlers
// never marshal a record a worker is mutating.
func (s *Server) snapshot(job *Job) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *job
}

// awaitJob answers a ?wait request: it blocks until job is terminal and
// replies with its snapshot.
func (s *Server) awaitJob(w http.ResponseWriter, r *http.Request, route string, job *Job) {
	select {
	case <-job.done:
		s.writeJSON(w, route, http.StatusOK, s.snapshot(job))
	case <-r.Context().Done():
		// Client gave up; the job keeps running and remains pollable.
		s.requests.With(route, "499").Inc()
	}
}

// handleJob serves a job record; ?wait blocks until the job is terminal.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/jobs"
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.writeJSON(w, route, http.StatusNotFound, apiError{Error: "unknown job " + id})
		return
	}
	if r.URL.Query().Get("wait") != "" {
		s.awaitJob(w, r, route, job)
		return
	}
	s.writeJSON(w, route, http.StatusOK, s.snapshot(job))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	const route = "/healthz"
	if s.draining.Load() {
		s.writeJSON(w, route, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, route, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.With("/metrics", "200").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Render(w)
}
