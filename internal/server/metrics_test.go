package server

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"approxsort/internal/mlc"
)

func TestRegistryRendersPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	c.Add(3)
	v := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	v.With("/a", "200").Inc()
	v.With("/a", "500").Add(2)
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 7 })
	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.1, 1}, "op")
	h.With("x").Observe(0.05)
	h.With("x").Observe(0.5)
	h.With("x").Observe(5)

	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP test_ops_total Ops.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		`test_requests_total{route="/a",code="200"} 1`,
		`test_requests_total{route="/a",code="500"} 2`,
		"# TYPE test_depth gauge",
		"test_depth 7",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{op="x",le="0.1"} 1`,
		`test_latency_seconds_bucket{op="x",le="1"} 2`,
		`test_latency_seconds_bucket{op="x",le="+Inf"} 3`,
		`test_latency_seconds_sum{op="x"} 5.55`,
		`test_latency_seconds_count{op="x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(3) // le=4
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %v, want 1", q)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Errorf("p99 = %v, want 4", q)
	}
	h.Observe(100)
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 with overflow sample = %v, want +Inf", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

// TestTableCacheSharedAcrossJobs is the satellite proof: two concurrent
// hybrid jobs at the same T must build ONE transition table — the second
// job hits the shared cache — and the /metrics surface must show it.
func TestTableCacheSharedAcrossJobs(t *testing.T) {
	tables := mlc.SharedTables()
	tables.Reset()
	t.Cleanup(tables.Reset)

	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const T = 0.09
	run := func() {
		resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
			Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 20000, Seed: 5}, Algorithm: "msd", T: T, Mode: ModeHybrid},
		})
		job := decodeJob(t, resp)
		if job.Status != StatusDone {
			t.Errorf("job: %q %s", job.Status, job.Error)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()

	// Two hybrid jobs at one T: exactly one table resident, and at least
	// one Get served from cache. (Each job calls CachedTable twice — once
	// for the p(t) write latency, once inside the approximate space — so
	// hits ≥ 3 of 4 gets; the singleflight makes "misses == 1" exact even
	// though both jobs raced to build.)
	if got := tables.Len(); got != 1 {
		t.Errorf("tables resident = %d, want 1", got)
	}
	if tables.Misses() != 1 {
		t.Errorf("table builds = %d, want 1 (cache not shared?)", tables.Misses())
	}
	if tables.Hits() == 0 {
		t.Error("no cache hits across two same-T jobs")
	}

	metrics := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"sortd_mlc_table_cache_misses_total 1",
		"sortd_mlc_table_cache_size 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(metrics, "table_cache"))
		}
	}
	if strings.Contains(metrics, "sortd_mlc_table_cache_hits_total 0\n") {
		t.Error("metrics report zero table-cache hits")
	}
}

// TestServerMetricsSurface checks the end-to-end /metrics content after a
// mixed workload: request counters, per-algorithm job counters, latency
// histogram series.
func TestServerMetricsSurface(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
			Inline: Inline{Keys: []uint32{3, 1, 2}},
			Common: Common{Algorithm: "quicksort", Mode: ModePrecise},
		})
		resp.Body.Close()
	}
	out := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		`sortd_requests_total{route="/v1/sort",code="200"} 3`,
		`sortd_jobs_total{backend="pcm-mlc",algorithm="quicksort",mode="precise",status="done"} 3`,
		`sortd_job_duration_seconds_count{backend="pcm-mlc",algorithm="quicksort",mode="precise"} 3`,
		"sortd_queue_capacity 8",
		"sortd_draining 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
