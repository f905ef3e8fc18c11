package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"approxsort/internal/dataset"
)

func streamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StreamDir == "" {
		cfg.StreamDir = t.TempDir()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func encodeKeys(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[i*4:], k)
	}
	return out
}

func postOctet(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSortStreamUploadEndToEnd(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 2, QueueDepth: 8})
	keys := dataset.Uniform(30000, 5)

	resp := postOctet(t, ts.URL+"/v1/sort/stream?wait=1&run_size=4000&fan_in=4&seed=7&t=0.07&mode=hybrid", encodeKeys(keys))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	if job.Kind != KindStream {
		t.Errorf("job kind = %q", job.Kind)
	}
	res := job.Result
	if res == nil || res.Extsort == nil {
		t.Fatalf("missing extsort result: %+v", res)
	}
	if !res.Verified || !res.Sorted {
		t.Errorf("verified=%v sorted=%v", res.Verified, res.Sorted)
	}
	if res.Extsort.Records != 30000 {
		t.Errorf("records = %d", res.Extsort.Records)
	}
	if res.Extsort.Runs < 2 {
		t.Errorf("runs = %d, expected a multi-run sort", res.Extsort.Runs)
	}
	if res.Mode != ModeHybrid || res.Rem == 0 {
		t.Errorf("mode=%q rem=%d", res.Mode, res.Rem)
	}
	if job.OutputBytes != 4*30000 {
		t.Errorf("OutputBytes = %d", job.OutputBytes)
	}

	// Download and spot-check the sorted output.
	out, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Body.Close()
	if out.StatusCode != http.StatusOK {
		t.Fatalf("output status = %d", out.StatusCode)
	}
	data, err := io.ReadAll(out.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4*len(keys) {
		t.Fatalf("output is %d bytes, want %d", len(data), 4*len(keys))
	}
	var prev uint32
	for i := 0; i < len(keys); i++ {
		k := binary.LittleEndian.Uint32(data[4*i:])
		if i > 0 && k < prev {
			t.Fatalf("output unsorted at %d", i)
		}
		prev = k
	}
}

func TestSortStreamDatasetAuto(t *testing.T) {
	s, ts := streamServer(t, Config{Workers: 2, QueueDepth: 8})
	resp := postJSON(t, ts.URL+"/v1/sort/stream?wait=1", JobSpec{
		Common:   Common{Dataset: &DatasetSpec{Kind: "uniform", N: 60000, Seed: 3}, T: 0.07, Seed: 11, Mode: ModeAuto},
		External: External{RunSize: 8000},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}
	res := job.Result
	if res == nil || res.Extsort == nil || res.Extsort.Plan == nil {
		t.Fatalf("auto mode did not record a plan: %+v", res)
	}
	pl := res.Extsort.Plan
	if res.Extsort.RunSize != pl.RunSize || res.Extsort.FanIn != pl.FanIn {
		t.Errorf("executed geometry (%d,%d) diverges from plan (%d,%d)",
			res.Extsort.RunSize, res.Extsort.FanIn, pl.RunSize, pl.FanIn)
	}
	if !res.Verified {
		t.Error("not verified")
	}
	// Progress must have been recorded along the way.
	if job.Progress == nil || job.Progress.Records != 60000 {
		t.Errorf("progress = %+v", job.Progress)
	}
	// Extsort metrics must have moved.
	var buf bytes.Buffer
	s.Metrics().Render(&buf)
	for _, m := range []string{"sortd_extsort_records_total 60000", "sortd_extsort_runs_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(m)) {
			t.Errorf("metrics missing %q", m)
		}
	}
}

func TestSortStreamValidation(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 1, QueueDepth: 4})

	// Truncated body (not a multiple of 4).
	resp := postOctet(t, ts.URL+"/v1/sort/stream", []byte{1, 2, 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated upload: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Empty body.
	resp = postOctet(t, ts.URL+"/v1/sort/stream", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// nearlysorted is not streamable.
	resp = postJSON(t, ts.URL+"/v1/sort/stream", JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "nearlysorted", N: 100}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nearlysorted: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad query parameter.
	resp = postOctet(t, ts.URL+"/v1/sort/stream?fan_in=x", encodeKeys([]uint32{1}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fan_in: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown mode.
	resp = postJSON(t, ts.URL+"/v1/sort/stream", JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 100}, Mode: "warp"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSortStreamQuota(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 1, QueueDepth: 4, MaxStreamBytes: 1000})

	// Upload over the server quota → 413 at admission.
	resp := postOctet(t, ts.URL+"/v1/sort/stream", encodeKeys(dataset.Uniform(1000, 1)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Dataset spec over the quota → 400 at admission.
	resp = postJSON(t, ts.URL+"/v1/sort/stream", JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 1000}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized dataset: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A job whose spill exceeds its own quota fails cleanly: the 800
	// bytes of level-0 runs cannot all be live under 500.
	resp = postJSON(t, ts.URL+"/v1/sort/stream?wait=1", JobSpec{
		Common:   Common{Dataset: &DatasetSpec{Kind: "uniform", N: 200, Seed: 2}, T: 0.07},
		External: External{RunSize: 50, MaxDiskBytes: 500},
	})
	job := decodeJob(t, resp)
	if job.Status != StatusFailed {
		t.Fatalf("quota-starved job status = %q (error %q)", job.Status, job.Error)
	}
}

func TestSortStreamOutputLifecycle(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4, RetainJobs: 1, StreamDir: t.TempDir()}
	_, ts := streamServer(t, cfg)

	resp := postJSON(t, ts.URL+"/v1/sort/stream?wait=1", JobSpec{
		Common:   Common{Dataset: &DatasetSpec{Kind: "uniform", N: 5000, Seed: 9}, T: 0.07},
		External: External{RunSize: 1000},
	})
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
	}

	// Output of a non-stream job is a 400.
	resp2 := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{Inline: Inline{Keys: []uint32{2, 1}}})
	plain := decodeJob(t, resp2)
	out, _ := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/output")
	if out.StatusCode != http.StatusBadRequest {
		t.Errorf("non-stream output: status = %d", out.StatusCode)
	}
	out.Body.Close()

	// RetainJobs=1 means the second finished job evicted the first —
	// record and files both.
	out, _ = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/output")
	if out.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job output: status = %d", out.StatusCode)
	}
	out.Body.Close()
	entries, err := os.ReadDir(cfg.StreamDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("evicted job left %d entries in the stream dir", len(entries))
	}
}

func TestSortStreamDeterministicAcrossResubmission(t *testing.T) {
	_, ts := streamServer(t, Config{Workers: 2, QueueDepth: 8})
	req := JobSpec{
		Common:   Common{Dataset: &DatasetSpec{Kind: "uniform", N: 20000, Seed: 4}, T: 0.07, Seed: 42, Mode: ModeHybrid},
		External: External{RunSize: 3000},
	}
	fetch := func() (*JobResult, []byte) {
		resp := postJSON(t, ts.URL+"/v1/sort/stream?wait=1", req)
		job := decodeJob(t, resp)
		if job.Status != StatusDone {
			t.Fatalf("job status = %q (error %q)", job.Status, job.Error)
		}
		out, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/output")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Body.Close()
		data, err := io.ReadAll(out.Body)
		if err != nil {
			t.Fatal(err)
		}
		return job.Result, data
	}
	r1, d1 := fetch()
	r2, d2 := fetch()
	if !bytes.Equal(d1, d2) {
		t.Error("resubmitted job produced different output bytes")
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("resubmitted job produced different results:\n%s\n%s", j1, j2)
	}
	if r1.Rem == 0 || r1.Extsort.RemTilde != r1.Rem {
		t.Errorf("rem accounting: %d vs %d", r1.Rem, r1.Extsort.RemTilde)
	}
}
