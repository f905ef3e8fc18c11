package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"approxsort/internal/sorts"
)

// TestAlgorithmsEndpoint pins the GET /v1/algorithms contract: every
// registered algorithm is listed with its cost profile, in registry
// (sorted-name) order, with the onesweep radix advertising its
// write-combining economy (2 writes per element per pass).
func TestAlgorithmsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body AlgorithmsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Default != "msd" {
		t.Errorf("default = %q, want msd", body.Default)
	}
	want := sorts.Names()
	if len(body.Algorithms) != len(want) {
		t.Fatalf("listed %d algorithms, registry has %d", len(body.Algorithms), len(want))
	}
	byName := map[string]AlgorithmView{}
	for i, v := range body.Algorithms {
		if v.Name != want[i] {
			t.Errorf("entry %d = %q, want registry order %q", i, v.Name, want[i])
		}
		if v.Doc == "" {
			t.Errorf("%s: empty doc", v.Name)
		}
		byName[v.Name] = v
	}
	os, ok := byName["onesweep-lsd"]
	if !ok {
		t.Fatal("onesweep-lsd not listed")
	}
	if !os.Radix || os.DefaultBits != 8 || !os.Auto || !os.ExactWrites {
		t.Errorf("onesweep-lsd view wrong: %+v", os)
	}
	// 8-bit onesweep: 4 passes × 2 writes/element, even pass count so no
	// copy-home. The 6-bit LSD pays 2 writes per element per pass too but
	// needs 6 passes.
	if os.WritesPerElement != 8 {
		t.Errorf("onesweep-lsd writes/element = %v, want 8", os.WritesPerElement)
	}
	if lsd := byName["lsd"]; lsd.WritesPerElement != 12 {
		t.Errorf("lsd writes/element = %v, want 12", lsd.WritesPerElement)
	}
}

// TestUnknownAlgorithmLists400 pins the typed-error contract end to end:
// an unknown algorithm name is rejected with 400 and the error body
// names the registered roster, so a client can self-correct without a
// second round trip to /v1/algorithms.
func TestUnknownAlgorithmLists400(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sort", "application/json",
		strings.NewReader(`{"keys":[3,1,2],"algorithm":"bogosort"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("body %q: %v", raw, err)
	}
	if !strings.Contains(apiErr.Error, `"bogosort"`) {
		t.Errorf("error %q does not echo the bad name", apiErr.Error)
	}
	for _, name := range sorts.Names() {
		if !strings.Contains(apiErr.Error, name) {
			t.Errorf("error %q does not list registered algorithm %q", apiErr.Error, name)
		}
	}
}

// TestSortAutoSelectsAlgorithm pins the registry-driven selection path:
// an algorithm=auto job must report which algorithm the planner picked
// (both in the plan verdict and the result), the pick must be a
// registered auto candidate, and resubmitting the same job must pick the
// same algorithm with identical accounting — selection is part of the
// determinism contract, not a per-run coin flip.
func TestSortAutoSelectsAlgorithm(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 20000, Seed: 11}, T: 0.055, Seed: 42},
	}
	run := func() *JobResult {
		resp := postJSON(t, ts.URL+"/v1/sort?wait=1", req)
		job := decodeJob(t, resp)
		if job.Status != StatusDone {
			t.Fatalf("job failed: %s", job.Error)
		}
		return job.Result
	}
	res := run()
	if res.Plan == nil || res.Plan.Algorithm == "" {
		t.Fatalf("auto job did not report a selected algorithm: plan=%+v", res.Plan)
	}
	candidate := false
	for _, c := range sorts.AutoCandidates() {
		if c.Name == res.Plan.Algorithm {
			candidate = true
			alg, err := sorts.New(c.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != alg.Name() {
				t.Errorf("result algorithm %q, want %q for pick %q", res.Algorithm, alg.Name(), c.Name)
			}
		}
	}
	if !candidate {
		t.Fatalf("selected %q is not an auto candidate", res.Plan.Algorithm)
	}
	if !res.Sorted || !res.Verified {
		t.Errorf("auto job output not verified: %+v", res)
	}
	again := run()
	if again.Plan.Algorithm != res.Plan.Algorithm || again.Writes != res.Writes ||
		again.WriteNanos != res.WriteNanos {
		t.Errorf("auto selection not deterministic:\n first %+v %+v\nsecond %+v %+v",
			res.Plan, res.Writes, again.Plan, again.Writes)
	}
}

// TestAutoMatchesExplicitRun pins that pinning the auto pick reproduces
// the run bit-for-bit: the run-stream seed is keyed by the resolved
// algorithm name, not by how the request spelled it.
func TestAutoMatchesExplicitRun(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := JobSpec{
		Common: Common{Dataset: &DatasetSpec{Kind: "uniform", N: 20000, Seed: 11}, T: 0.055, Seed: 42},
	}
	autoReq := base
	autoRes := decodeJob(t, postJSON(t, ts.URL+"/v1/sort?wait=1", autoReq)).Result
	if autoRes == nil || autoRes.Plan == nil {
		t.Fatal("auto job missing result or plan")
	}
	pinned := base
	pinned.Algorithm = autoRes.Plan.Algorithm
	pinned.Mode = autoRes.Mode
	pinnedRes := decodeJob(t, postJSON(t, ts.URL+"/v1/sort?wait=1", pinned)).Result
	if pinnedRes == nil {
		t.Fatal("pinned job missing result")
	}
	if autoRes.Writes != pinnedRes.Writes || autoRes.WriteNanos != pinnedRes.WriteNanos ||
		autoRes.Rem != pinnedRes.Rem || autoRes.ActualWR != pinnedRes.ActualWR {
		t.Errorf("auto run diverges from pinned %q run:\n auto   %+v nanos=%v rem=%d\n pinned %+v nanos=%v rem=%d",
			pinned.Algorithm, autoRes.Writes, autoRes.WriteNanos, autoRes.Rem,
			pinnedRes.Writes, pinnedRes.WriteNanos, pinnedRes.Rem)
	}
}
