package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"approxsort/internal/dataset"
)

// TestHTTPContract pins what each sort route accepts and rejects, in both
// input forms: the JSON body (a field foreign to the route is the decoder's
// unknown-field 400, even at its zero value) and the octet-stream upload
// (each malformed query value is a 400 naming the key, while query keys
// the route does not read are ignored).
func TestHTTPContract(t *testing.T) {
	_, sharded := shardFleet(t, 1, Config{Workers: 2, QueueDepth: 8})
	const (
		sortRoute    = "/v1/sort"
		streamRoute  = "/v1/sort/stream"
		shardedRoute = "/v1/sort/sharded"
	)
	unknown := func(field string) string { return `bad request: json: unknown field "` + field + `"` }
	badQuery := func(key, parse, val string) string {
		return "bad " + key + ": strconv." + parse + `: parsing "` + val + `": invalid syntax`
	}
	keys := encodeKeys(dataset.Uniform(64, 3))
	cases := []struct {
		name, route, query, json string // json empty: octet upload of keys
		code                     int
		err                      string // exact error body; empty: any
	}{
		// JSON: fields that belong to another route.
		{"sort/run_size", sortRoute, "", `{"keys":[2,1],"run_size":4}`, 400, unknown("run_size")},
		{"sort/run_size-zero", sortRoute, "", `{"keys":[2,1],"run_size":0}`, 400, unknown("run_size")},
		{"sort/fan_in", sortRoute, "", `{"keys":[2,1],"fan_in":4}`, 400, unknown("fan_in")},
		{"sort/formation", sortRoute, "", `{"keys":[2,1],"formation":"chunk"}`, 400, unknown("formation")},
		{"sort/refine_at_merge", sortRoute, "", `{"keys":[2,1],"refine_at_merge":true}`, 400, unknown("refine_at_merge")},
		{"sort/max_disk_bytes", sortRoute, "", `{"keys":[2,1],"max_disk_bytes":9}`, 400, unknown("max_disk_bytes")},
		{"sort/tenant", sortRoute, "", `{"keys":[2,1],"tenant":"a"}`, 400, unknown("tenant")},
		{"sort/max_shards", sortRoute, "", `{"keys":[2,1],"max_shards":1}`, 400, unknown("max_shards")},
		{"sort/warm_tables", sortRoute, "", `{"keys":[2,1],"warm_tables":true}`, 400, unknown("warm_tables")},
		{"stream/keys", streamRoute, "", `{"keys":[2,1]}`, 400, unknown("keys")},
		{"stream/return_keys", streamRoute, "", `{"dataset":{"n":10},"return_keys":true}`, 400, unknown("return_keys")},
		{"stream/tenant", streamRoute, "", `{"dataset":{"n":10},"tenant":""}`, 400, unknown("tenant")},
		{"stream/max_shards", streamRoute, "", `{"dataset":{"n":10},"max_shards":1}`, 400, unknown("max_shards")},
		{"stream/warm_tables", streamRoute, "", `{"dataset":{"n":10},"warm_tables":true}`, 400, unknown("warm_tables")},
		{"sharded/keys", shardedRoute, "", `{"keys":[2,1]}`, 400, unknown("keys")},
		{"sharded/return_keys", shardedRoute, "", `{"dataset":{"n":10},"return_keys":false}`, 400, unknown("return_keys")},
		{"sort/bogus", sortRoute, "", `{"keys":[2,1],"bogus":1}`, 400, unknown("bogus")},

		// JSON: every route-owned field is accepted.
		{"sort/all-fields", sortRoute, "", `{"keys":[2,1],"algorithm":"msd","bits":4,"mode":"hybrid","backend":"pcm-mlc","params":{"t":0.07},"seed":3,"return_keys":true}`, 200, ""},
		{"stream/all-fields", streamRoute, "", `{"dataset":{"n":100},"algorithm":"msd","bits":4,"mode":"hybrid","backend":"pcm-mlc","t":0.07,"seed":3,"run_size":50,"fan_in":2,"formation":"chunk","refine_at_merge":true,"max_disk_bytes":100000}`, 200, ""},
		{"sharded/all-fields", shardedRoute, "", `{"dataset":{"n":100},"algorithm":"msd","bits":4,"mode":"hybrid","t":0.07,"seed":3,"run_size":50,"fan_in":2,"formation":"chunk","refine_at_merge":true,"max_disk_bytes":100000,"tenant":"a","max_shards":1,"warm_tables":true}`, 200, ""},

		// Octet: malformed query values.
		{"stream/bits", streamRoute, "bits=x", "", 400, badQuery("bits", "Atoi", "x")},
		{"stream/seed", streamRoute, "seed=-1", "", 400, badQuery("seed", "ParseUint", "-1")},
		{"stream/run_size", streamRoute, "run_size=1.5", "", 400, badQuery("run_size", "Atoi", "1.5")},
		{"stream/fan_in", streamRoute, "fan_in=x", "", 400, badQuery("fan_in", "Atoi", "x")},
		{"stream/t", streamRoute, "t=x", "", 400, badQuery("t", "ParseFloat", "x")},
		{"stream/max_disk_bytes", streamRoute, "max_disk_bytes=x", "", 400, badQuery("max_disk_bytes", "ParseInt", "x")},
		{"stream/refine_at_merge", streamRoute, "refine_at_merge=maybe", "", 400, badQuery("refine_at_merge", "ParseBool", "maybe")},
		{"sharded/bits", shardedRoute, "bits=x", "", 400, badQuery("bits", "Atoi", "x")},
		{"sharded/seed", shardedRoute, "seed=x", "", 400, badQuery("seed", "ParseUint", "x")},
		{"sharded/run_size", shardedRoute, "run_size=x", "", 400, badQuery("run_size", "Atoi", "x")},
		{"sharded/refine_at_merge", shardedRoute, "refine_at_merge=2", "", 400, badQuery("refine_at_merge", "ParseBool", "2")},
		{"sharded/max_shards", shardedRoute, "max_shards=x", "", 400, badQuery("max_shards", "Atoi", "x")},
		{"sharded/warm_tables", shardedRoute, "warm_tables=x", "", 400, badQuery("warm_tables", "ParseBool", "x")},

		// Octet: keys another route reads are ignored, empty values too.
		{"stream/ignores-fleet-keys", streamRoute, "tenant=a&max_shards=x&warm_tables=x&bits=", "", 200, ""},
		{"stream/all-keys", streamRoute, "algorithm=msd&bits=4&mode=hybrid&backend=pcm-mlc&t=0.07&seed=3&run_size=50&fan_in=2&formation=chunk&refine_at_merge=true&max_disk_bytes=100000", "", 200, ""},
		{"sharded/all-keys", shardedRoute, "algorithm=msd&mode=hybrid&t=0.07&seed=3&run_size=50&tenant=a&max_shards=1&warm_tables=true", "", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := sharded + tc.route + "?wait=1"
			if tc.query != "" {
				url += "&" + tc.query
			}
			var resp *http.Response
			var err error
			if tc.json != "" {
				resp, err = http.Post(url, "application/json", strings.NewReader(tc.json))
			} else {
				resp, err = http.Post(url, "application/octet-stream", bytes.NewReader(keys))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d (error %q)", resp.StatusCode, tc.code, body.Error)
			}
			if tc.err != "" && body.Error != tc.err {
				t.Errorf("error = %q\n want %q", body.Error, tc.err)
			}
			if tc.code == http.StatusOK && body.Status != StatusDone {
				t.Errorf("job status = %q (error %q)", body.Status, body.Error)
			}
		})
	}
}

// TestPlanAlgorithmContract pins where a job's plan names an algorithm:
// only when the in-memory planner chose among the auto roster. Plans of
// explicit-algorithm jobs and of streaming and sharded jobs carry none.
func TestPlanAlgorithmContract(t *testing.T) {
	_, url := shardFleet(t, 1, Config{Workers: 2, QueueDepth: 8})
	cases := []struct {
		name, route, body string
		plan              []string // path to the plan object in the job result
		want              bool     // plan names an algorithm
	}{
		{"sort/auto", "/v1/sort", `{"dataset":{"n":3000,"seed":1},"algorithm":"auto","seed":2}`, []string{"plan"}, true},
		{"sort/explicit", "/v1/sort", `{"dataset":{"n":3000,"seed":1},"algorithm":"msd","mode":"auto","seed":2}`, []string{"plan"}, false},
		{"stream/auto", "/v1/sort/stream", `{"dataset":{"n":3000,"seed":1},"algorithm":"auto","mode":"auto","run_size":1024,"seed":2}`, []string{"extsort", "plan"}, false},
		{"sharded/auto", "/v1/sort/sharded", `{"dataset":{"n":3000,"seed":1},"algorithm":"auto","mode":"auto","seed":2}`, []string{"cluster", "plan"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(url+tc.route+"?wait=1", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var job map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			if job["status"] != StatusDone {
				t.Fatalf("job = %v", job)
			}
			obj, _ := job["result"].(map[string]any)
			for _, k := range tc.plan {
				obj, _ = obj[k].(map[string]any)
			}
			if obj == nil {
				t.Fatalf("no plan at %v in %v", tc.plan, job["result"])
			}
			if tc.route == "/v1/sort" {
				if _, stray := obj["Algorithm"]; stray {
					t.Errorf("plan carries a Go-named algorithm field: %v", obj)
				}
				_, got := obj["algorithm"]
				if got != tc.want {
					t.Errorf("plan.algorithm present = %v, want %v: %v", got, tc.want, obj)
				}
				return
			}
			for _, k := range []string{"algorithm", "Algorithm"} {
				if _, got := obj[k]; got {
					t.Errorf("plan carries %q: %v", k, obj)
				}
			}
		})
	}
}
