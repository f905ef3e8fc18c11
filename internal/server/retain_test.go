package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"approxsort/internal/dataset"
)

// TestRetainedJobHeap bounds what a finished in-memory job record keeps
// alive: the sorted output of a return_keys job (4n bytes) and nothing of
// its input. While terminal records kept their spec, each one also
// pinned the decoded inline key array: at n = 20000 that read about
// 2.3 × 4n bytes per return_keys record and 1.2 × 4n without.
func TestRetainedJobHeap(t *testing.T) {
	const n, jobs = 20000, 12
	for _, tc := range []struct {
		name       string
		returnKeys bool
		maxPerJob  float64 // retained heap bytes per record
	}{
		{"return_keys", true, 1.25 * 4 * n},
		{"no_return_keys", false, 8 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: 4})
			defer s.Shutdown(context.Background())
			h := s.Handler()
			submit := func(seed uint64) {
				body, err := json.Marshal(JobSpec{
					Inline: Inline{Keys: dataset.Uniform(n, seed), ReturnKeys: tc.returnKeys},
					Common: Common{Algorithm: "quicksort", Mode: ModePrecise, Seed: seed},
				})
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sort?wait=1", bytes.NewReader(body)))
				var job Job
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.Status != StatusDone {
					t.Fatalf("job %d: %d %s", seed, rec.Code, rec.Body.Bytes())
				}
			}
			heap := func() float64 {
				var ms runtime.MemStats
				// The second cycle frees what the first moved into the
				// sync.Pool victim caches (encoding/json's buffers).
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}
			for i := 1; i <= jobs; i++ {
				submit(uint64(i))
			}
			// What the records retain is the heap they keep live: measure
			// with them in the store, then drop them and measure again.
			// Both readings are taken back to back, so allocations that
			// other tests' goroutines make meanwhile barely enter.
			with := heap()
			s.mu.Lock()
			retained := len(s.jobs)
			clear(s.jobs)
			s.order = nil
			s.mu.Unlock()
			perJob := (with - heap()) / jobs
			if retained != jobs {
				t.Fatalf("retained %d records, want %d", retained, jobs)
			}
			t.Logf("retained %.0f heap bytes per record (4n = %d)", perJob, 4*n)
			if perJob > tc.maxPerJob {
				t.Errorf("each retained record holds %.0f heap bytes, want ≤ %.0f (4n = %d)",
					perJob, tc.maxPerJob, 4*n)
			}
		})
	}
}
