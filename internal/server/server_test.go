package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func TestSortEndToEndAuto(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
		Inline: Inline{Keys: []uint32{5, 3, 1, 4, 2}, ReturnKeys: true},
		Common: Common{Algorithm: "auto"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	res := job.Result
	if res == nil {
		t.Fatal("no result")
	}
	if !res.Sorted {
		t.Error("result not marked sorted")
	}
	want := []uint32{1, 2, 3, 4, 5}
	if len(res.Keys) != len(want) {
		t.Fatalf("returned %d keys", len(res.Keys))
	}
	for i := range want {
		if res.Keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", res.Keys, want)
		}
	}
	// Auto mode must record the planner verdict and route accordingly.
	// (Equation 4 is scale-free for radix sorts — α is linear in n — so
	// even a tiny input may legitimately route hybrid; what matters is
	// that the verdict and the executed mode agree.)
	if res.Plan == nil {
		t.Fatal("auto job missing planner verdict")
	}
	wantMode := ModePrecise
	if res.Plan.UseHybrid {
		wantMode = ModeHybrid
	}
	if res.Mode != wantMode {
		t.Errorf("mode %q disagrees with plan %+v", res.Mode, res.Plan)
	}
}

func TestSortAutoRoutesHybridAtSweetSpot(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 300000, Seed: 7}, Algorithm: "msd", Bits: 3, T: 0.055, Mode: ModeAuto},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job failed: %s", job.Error)
	}
	res := job.Result
	if res.Plan == nil || !res.Plan.UseHybrid || res.Mode != ModeHybrid {
		t.Fatalf("sweet-spot job not routed hybrid: mode=%q plan=%+v", res.Mode, res.Plan)
	}
	if !res.Sorted {
		t.Error("hybrid output not sorted")
	}
	// Predicted vs. actual write reduction must both be present and agree
	// in sign (the planner's whole job).
	if res.PredictedWR <= 0 || res.ActualWR <= 0 {
		t.Errorf("predicted WR %v / actual WR %v not both positive", res.PredictedWR, res.ActualWR)
	}
	if res.Rem <= 0 {
		t.Errorf("hybrid run reported Rem~ = %d", res.Rem)
	}
	if res.PCMNanos <= 0 {
		t.Errorf("PCM clock = %v", res.PCMNanos)
	}
	if res.Writes.Approx == 0 || res.Writes.Precise == 0 || res.Writes.Baseline == 0 {
		t.Errorf("write accounting incomplete: %+v", res.Writes)
	}
}

func TestSortAsyncPolling(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{2, 1}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	job := decodeJob(t, resp)
	if job.ID == "" || loc != "/v1/jobs/"+job.ID {
		t.Fatalf("bad Location %q for job %q", loc, job.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeJob(t, r)
		if got.Status == StatusDone {
			break
		}
		if got.Status == StatusFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, MaxN: 1000})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"both inputs", `{"keys":[1],"dataset":{"kind":"uniform","n":5}}`},
		{"zero n", `{"dataset":{"kind":"uniform","n":0}}`},
		{"over maxN", `{"dataset":{"kind":"uniform","n":100000}}`},
		{"bad kind", `{"dataset":{"kind":"gauss","n":5}}`},
		{"bad algorithm", `{"keys":[1,2],"algorithm":"bogo"}`},
		{"bad mode", `{"keys":[1,2],"mode":"turbo"}`},
		{"bad T", `{"keys":[1,2],"t":0.5}`},
		{"bad bits", `{"keys":[1,2],"bits":40}`},
		{"unknown field", `{"keys":[1,2],"frobnicate":true}`},
		{"not json", `hello`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestQueueFull429 pins the backpressure contract: with the single worker
// held and the queue full, the next POST is rejected with 429 and a
// Retry-After header, and the rejection shows up on /metrics.
func TestQueueFull429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookBeforeExec = func(*Job) { started <- struct{}{}; <-block }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job 1 occupies the worker (wait until it is actually held), job 2
	// fills the queue slot.
	r1 := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{3, 1}}})
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", r1.StatusCode)
	}
	<-started
	r2 := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{3, 1}}})
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d", r2.StatusCode)
	}

	r3 := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{3, 1}}})
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	metrics := fetchMetrics(t, ts.URL)
	if !strings.Contains(metrics, "sortd_queue_rejected_total 1") {
		t.Errorf("metrics missing rejection count:\n%s", grepMetrics(metrics, "sortd_queue"))
	}

	close(block)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdown pins the drain contract: once Shutdown begins,
// healthz flips to 503/draining, new jobs are refused, and both the
// in-flight and the queued job still run to completion before Shutdown
// returns.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookBeforeExec = func(*Job) { started <- struct{}{}; <-block }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{2, 1}}})
	inflightJob := decodeJob(t, inflight)
	<-started
	queued := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{4, 3}}})
	queuedJob := decodeJob(t, queued)

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// Draining must become observable while the worker is still held.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hz.StatusCode)
	}
	refused := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{9, 8}}})
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", refused.StatusCode)
	}

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before jobs drained: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Both jobs must have completed during the drain.
	for _, id := range []string{inflightJob.ID, queuedJob.ID} {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeJob(t, r)
		if got.Status != StatusDone {
			t.Errorf("job %s after drain: status %q error %q", id, got.Status, got.Error)
		}
	}
}

// TestShutdownContextCancel: a deadline shorter than the drain abandons the
// wait with an error instead of hanging.
func TestShutdownContextCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testHookBeforeExec = func(*Job) { started <- struct{}{}; <-block }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := postJSON(t, ts.URL+"/v1/sort", JobSpec{Inline: Inline{Keys: []uint32{2, 1}}})
	r.Body.Close()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite a held worker")
	}
	close(block)
}

// TestConcurrentSorts hammers POST /v1/sort from many goroutines — the
// test the CI -race step leans on. Every job must come back sorted, and
// per-request seeds keep results independent of scheduling.
func TestConcurrentSorts(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
					Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 5000, Seed: uint64(c*100 + i)}, Algorithm: "msd", T: 0.055, Mode: ModeAuto, Seed: uint64(c*1000 + i)},
				})
				job := decodeJob(t, resp)
				if job.Status != StatusDone {
					errs <- fmt.Errorf("client %d job %d: %q %s", c, i, job.Status, job.Error)
					return
				}
				if !job.Result.Sorted {
					errs <- fmt.Errorf("client %d job %d: unsorted", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDeterministicAcrossConcurrency: the same request replayed at
// different worker counts produces bit-identical accounting, because every
// stream is derived from the request's coordinates.
func TestDeterministicAcrossConcurrency(t *testing.T) {
	req := func() *JobSpec {
		r := &JobSpec{
			Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 50000, Seed: 11}, Algorithm: "msd", T: 0.08, Mode: ModeHybrid, Seed: 99},
		}
		if err := r.validate(KindSort, Config{}.withDefaults(), false); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, err := execute(req(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run amid unrelated concurrent jobs.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			other := &JobSpec{
				Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 10000, Seed: uint64(i)}, Mode: ModePrecise, Algorithm: "quicksort", Seed: uint64(i)},
			}
			if err := other.validate(KindSort, Config{}.withDefaults(), false); err == nil {
				execute(other, 0) //nolint:errcheck // background noise only
			}
		}(i)
	}
	b, err := execute(req(), 0)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if a.Rem != b.Rem || a.Writes != b.Writes || a.ActualWR != b.ActualWR || a.PCMNanos != b.PCMNanos {
		t.Errorf("same request diverged:\n%+v\n%+v", a, b)
	}
}

func fetchMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// grepMetrics returns the metric lines containing substr, for error
// messages.
func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
