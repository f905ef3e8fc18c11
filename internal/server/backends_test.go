package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"approxsort/internal/memmodel"
)

// TestBackendsEndpoint pins the discovery surface: GET /v1/backends lists
// every registered backend with its parameter schema, and names the
// default.
func TestBackendsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got BackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Default != memmodel.DefaultName {
		t.Errorf("default = %q, want %q", got.Default, memmodel.DefaultName)
	}
	views := map[string]BackendView{}
	for _, v := range got.Backends {
		views[v.Name] = v
	}
	mlcView, ok := views[memmodel.PCMMLC]
	if !ok {
		t.Fatalf("pcm-mlc missing from %v", got.Backends)
	}
	if len(mlcView.Params) != 1 || mlcView.Params[0].Name != "t" || mlcView.Params[0].Default != 0.055 {
		t.Errorf("pcm-mlc params = %+v", mlcView.Params)
	}
	spinView, ok := views[memmodel.SpintronicName]
	if !ok {
		t.Fatalf("spintronic missing from %v", got.Backends)
	}
	params := map[string]bool{}
	for _, p := range spinView.Params {
		params[p.Name] = true
	}
	for _, want := range []string{"saving", "bit_error_prob", "read_bit_error_prob"} {
		if !params[want] {
			t.Errorf("spintronic schema missing %q: %+v", want, spinView.Params)
		}
	}
}

// TestSortSpintronicEndToEnd serves a spintronic job through the registry
// seam: hybrid mode (the planner routes spintronic precise under auto,
// since its approximate writes are not faster), verified by the invariant
// checker against the spintronic accounting identities.
func TestSortSpintronicEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/sort?wait=1", JobSpec{
		Inline: Inline{Keys: []uint32{5, 3, 1, 4, 2}, ReturnKeys: true},
		Common: Common{Backend: "spintronic", Params: map[string]float64{"saving": 0.33, "bit_error_prob": 1e-5}, Mode: ModeHybrid},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Status != StatusDone {
		t.Fatalf("status = %q (error %q)", job.Status, job.Error)
	}
	if job.Backend != "spintronic" {
		t.Errorf("job backend = %q", job.Backend)
	}
	res := job.Result
	if res == nil {
		t.Fatal("no result")
	}
	if !res.Sorted || !res.Verified {
		t.Errorf("Sorted=%v Verified=%v, want both true", res.Sorted, res.Verified)
	}
	if res.Backend != "spintronic" {
		t.Errorf("result backend = %q", res.Backend)
	}
	if res.Params["saving"] != 0.33 || res.Params["bit_error_prob"] != 1e-5 {
		t.Errorf("result params = %v", res.Params)
	}
	if res.T != 0 {
		t.Errorf("T = %v leaked into a non-MLC result", res.T)
	}
	for i, want := range []uint32{1, 2, 3, 4, 5} {
		if res.Keys[i] != want {
			t.Fatalf("keys = %v", res.Keys)
		}
	}
}

// TestSortBackendRequestValidation pins the 400 surface of the backend
// parameters: an unregistered name is rejected with the registry's typed
// error text, and T (the pcm-mlc shorthand) cannot parameterize another
// backend.
func TestSortBackendRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown backend", `{"keys":[2,1],"backend":"memristor"}`, "unknown backend"},
		{"t on spintronic", `{"keys":[2,1],"backend":"spintronic","t":0.055}`, "applies only to the pcm-mlc backend"},
		{"t and params.t", `{"keys":[2,1],"t":0.055,"params":{"t":0.055}}`, "not both"},
		{"foreign param", `{"keys":[2,1],"backend":"pcm-mlc","params":{"saving":0.2}}`, "unknown parameter"},
		{"out of range", `{"keys":[2,1],"backend":"spintronic","params":{"saving":1.5}}`, "saving"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.wantErr)
		}
	}
}
