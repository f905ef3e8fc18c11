package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// doubleJob renders a job record the way sortd's ?wait=1 response does.
func doubleJob(status string, verified bool, keys []uint32) map[string]any {
	return map[string]any{
		"id": "job-1", "status": status, "error": "",
		"result":      map[string]any{"verified": verified, "write_nanos": 1234.5, "keys": keys},
		"enqueued_at": "2026-01-01T00:00:00Z", "started_at": "2026-01-01T00:00:00Z", "finished_at": "2026-01-01T00:00:01Z",
	}
}

// inmemDouble answers POST /v1/sort with the behaviour named by reply.
func inmemDouble(t *testing.T, reply string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req sortRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("double: %v", err)
		}
		sorted := slices.Clone(req.Keys)
		slices.Sort(sorted)
		var job map[string]any
		switch reply {
		case "ok":
			job = doubleJob("done", true, sorted)
		case "unsorted":
			job = doubleJob("done", true, req.Keys)
		case "lost-key":
			sorted[len(sorted)-1] = sorted[0]
			slices.Sort(sorted)
			job = doubleJob("done", true, sorted)
		case "unverified":
			job = doubleJob("done", false, sorted)
		case "failed":
			job = doubleJob("failed", false, nil)
		case "500":
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		case "429":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full, retry later"}`, http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(job)
	}))
}

func testPool(t *testing.T, w workload) []input {
	t.Helper()
	w.pool, w.n = 3, 200
	pool, err := makeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestSubmitCountsEveryFailure(t *testing.T) {
	w := workloads[0]
	pool := testPool(t, w)
	for reply, wantOK := range map[string]bool{
		"ok": true, "unsorted": false, "lost-key": false, "unverified": false,
		"failed": false, "500": false, "429": false,
	} {
		srv := inmemDouble(t, reply)
		c := &client{hc: srv.Client(), base: srv.URL, w: w}
		if o := c.submit(context.Background(), &pool[0]); o.ok != wantOK {
			t.Errorf("%s: ok=%v (reason %q), want %v", reply, o.ok, o.reason, wantOK)
		}
		srv.Close()
	}
}

func TestClosedLoopTallyAndDrift(t *testing.T) {
	w := workloads[0]
	w.think = 0
	pool := testPool(t, w)
	srv := inmemDouble(t, "500")
	defer srv.Close()
	c := &client{hc: srv.Client(), base: srv.URL, w: w}
	outs := closedLoop(context.Background(), c, pool, 2, 7, time.Time{})
	if failed, reasons := tally(outs); len(outs) != 7 || failed != 7 || len(reasons) != 5 {
		t.Errorf("500s: %d jobs, %d failed, %d reasons; want 7, 7, 5", len(outs), failed, len(reasons))
	}

	ok := inmemDouble(t, "ok")
	defer ok.Close()
	c = &client{hc: ok.Client(), base: ok.URL, w: w, expects: map[int]float64{0: 1234.5, 1: 99}}
	outs = closedLoop(context.Background(), c, pool, 1, 3, time.Time{})
	if failed, _ := tally(outs); failed != 1 || outs[1].ok {
		t.Errorf("a drifted write_nanos must fail exactly input 1: %+v", outs)
	}
}

// shardedDouble answers the sharded upload and serves an output stream
// produced by mangle from the sorted upload.
func shardedDouble(t *testing.T, mangle func([]uint32) []uint32) *httptest.Server {
	var out []byte
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/sharded", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") != "application/octet-stream" || r.URL.Query().Get("run_size") == "" {
			t.Errorf("double: unexpected request %s %v", r.Header.Get("Content-Type"), r.URL.Query())
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		slices.Sort(keys)
		out = nil
		for _, k := range mangle(keys) {
			out = binary.LittleEndian.AppendUint32(out, k)
		}
		_ = json.NewEncoder(w).Encode(doubleJob("done", true, nil))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/output", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(out)
	})
	return httptest.NewServer(mux)
}

func TestShardedOutputCheck(t *testing.T) {
	w := workloads[2]
	pool := testPool(t, w)
	for name, tc := range map[string]struct {
		mangle func([]uint32) []uint32
		ok     bool
	}{
		"sorted":    {func(k []uint32) []uint32 { return k }, true},
		"short":     {func(k []uint32) []uint32 { return k[1:] }, false},
		"unordered": {func(k []uint32) []uint32 { k[0], k[1] = k[1], k[0]+1; return k }, false},
		"replaced":  {func(k []uint32) []uint32 { k[len(k)-1]--; return k }, false},
	} {
		srv := shardedDouble(t, tc.mangle)
		c := &client{hc: srv.Client(), base: srv.URL, w: w}
		if o := c.submit(context.Background(), &pool[0]); o.ok != tc.ok {
			t.Errorf("%s: ok=%v (reason %q), want %v", name, o.ok, o.reason, tc.ok)
		}
		srv.Close()
	}
}
