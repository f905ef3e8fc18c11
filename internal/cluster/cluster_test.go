package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/dataset"
	"approxsort/internal/server"
	"approxsort/internal/sorts"
	"approxsort/internal/verify"
)

func encode(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[4*i:], k)
	}
	return out
}

func decode(t *testing.T, raw []byte) []uint32 {
	t.Helper()
	if len(raw)%4 != 0 {
		t.Fatalf("output of %d bytes is not word-aligned", len(raw))
	}
	keys := make([]uint32, len(raw)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return keys
}

// startShards spins up n in-process sortd instances and returns their
// base URLs.
func startShards(t *testing.T, n int) []string {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		s := server.New(server.Config{Workers: 2, StreamDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		nodes[i] = ts.URL
	}
	return nodes
}

func auditorHook(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) }

func TestCoordinatorSortAcrossShards(t *testing.T) {
	nodes := startShards(t, 3)
	const n = 150000
	inputs := []struct {
		name string
		keys []uint32
	}{
		{"uniform", dataset.Uniform(n, 17)},
		// Degenerate inputs make splitters equal, so boundary keys
		// round-robin across shards whose ranges touch.
		{"constant", dataset.FewDistinct(n, 1, 17)},
		{"three-distinct", dataset.FewDistinct(n, 3, 17)},
		{"sorted", dataset.Sorted(n)},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			co, err := cluster.New(cluster.Config{
				Nodes:      nodes,
				Job:        cluster.JobParams{Mode: "auto", T: 0.07, Seed: 41},
				MemBudget:  1 << 14, // out-of-core at this size, so the planner fans out
				TempDir:    t.TempDir(),
				NewAuditor: auditorHook,
				WrapShard:  verify.WrapShards(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			stats, err := co.Sort(context.Background(), bytes.NewReader(encode(in.keys)), &out)
			if err != nil {
				t.Fatal(err)
			}

			want := append([]uint32(nil), in.keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !bytes.Equal(out.Bytes(), encode(want)) {
				t.Fatalf("output (%d bytes) is not the sorted input (%d bytes)", out.Len(), 4*len(want))
			}

			if !stats.Verified {
				t.Error("Stats.Verified = false")
			}
			if stats.MergeWrites != stats.Records {
				t.Errorf("MergeWrites = %d, want Records = %d", stats.MergeWrites, stats.Records)
			}
			if stats.Plan == nil || stats.Plan.Sharded == nil {
				t.Fatal("no sharded plan in stats")
			}
			if got, want := len(stats.Shards), stats.Plan.Sharded.Shards; got != want {
				t.Errorf("ran %d shards, plan chose %d", got, want)
			}
			if len(stats.Shards) < 2 {
				t.Errorf("coordinator did not fan out: %d shards", len(stats.Shards))
			}
			for i, sh := range stats.Shards {
				if !sh.Verified {
					t.Errorf("shard %d not verified", i)
				}
				if sh.JobID == "" || sh.Node == "" {
					t.Errorf("shard %d missing identity: %+v", i, sh)
				}
			}
			if err := verify.CheckClusterStats(stats).Err(); err != nil {
				t.Errorf("cluster ledger: %v", err)
			}
		})
	}
}

func TestCoordinatorDeterministicSplitters(t *testing.T) {
	nodes := startShards(t, 2)
	run := func() cluster.Stats {
		co, err := cluster.New(cluster.Config{
			Nodes:      nodes,
			Job:        cluster.JobParams{Mode: "hybrid", T: 0.07, Seed: 5},
			MemBudget:  1 << 13,
			MaxShards:  2,
			TempDir:    t.TempDir(),
			NewAuditor: auditorHook,
			WrapShard:  verify.WrapShards(),
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := dataset.Uniform(60000, 3)
		var out bytes.Buffer
		stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if fmt.Sprint(a.Splitters) != fmt.Sprint(b.Splitters) {
		t.Fatalf("splitters diverged: %v vs %v", a.Splitters, b.Splitters)
	}
	for i := range a.Shards {
		if a.Shards[i].Records != b.Shards[i].Records {
			t.Fatalf("partition diverged at shard %d: %d vs %d",
				i, a.Shards[i].Records, b.Shards[i].Records)
		}
	}
}

// fakeShard accepts submissions and reports jobs running forever: a
// ?wait request blocks until the client or the shard goes away; kill
// closes it mid-job.
type fakeShard struct {
	ts     *httptest.Server
	polled chan struct{} // closed on first poll
	once   sync.Once
}

func newFakeShard() *fakeShard {
	f := &fakeShard{polled: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/stream", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-00000001", "status": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.once.Do(func() { close(f.polled) })
		if r.URL.Query().Get("wait") != "" {
			<-r.Context().Done()
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"id": r.PathValue("id"), "status": "running"})
	})
	f.ts = httptest.NewServer(mux)
	return f
}

func TestCoordinatorKilledShardSurfacesTypedError(t *testing.T) {
	shards := []*fakeShard{newFakeShard(), newFakeShard(), newFakeShard()}
	nodes := make([]string, len(shards))
	for i, f := range shards {
		nodes[i] = f.ts.URL
		t.Cleanup(f.ts.Close)
	}
	co, err := cluster.New(cluster.Config{
		Nodes: nodes,
		Job:   cluster.JobParams{Mode: "hybrid", T: 0.07, Seed: 9},
		// Fakes never sort, so skip planning surprises: tiny input, all
		// shards forced.
		MemBudget:  1 << 11,
		TempDir:    t.TempDir(),
		NewAuditor: auditorHook,
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first fake that gets polled, mid-job.
	killed := make(chan string, 1)
	go func() {
		cases := make([]chan struct{}, len(shards))
		for i, f := range shards {
			cases[i] = f.polled
		}
		for {
			for i, ch := range cases {
				select {
				case <-ch:
					shards[i].ts.CloseClientConnections()
					shards[i].ts.Close()
					killed <- nodes[i]
					return
				default:
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keys := dataset.Uniform(20000, 11)
	var out bytes.Buffer
	_, err = co.Sort(ctx, bytes.NewReader(encode(keys)), &out)
	if err == nil {
		t.Fatal("coordinator succeeded against dead shard")
	}
	if ctx.Err() != nil {
		t.Fatalf("coordinator hung until the deadline: %v", err)
	}
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *cluster.ShardError", err, err)
	}
	deadNode := <-killed
	if se.Node != deadNode {
		t.Fatalf("ShardError names %s, killed %s", se.Node, deadNode)
	}
	if se.Stage != "poll" && se.Stage != "job" {
		t.Fatalf("ShardError stage = %q", se.Stage)
	}
}

// faultShard is a shard double: it sorts the uploaded keys, reports the
// job done and verified with the right extsort.records, and then serves
// /output through serve, which scripts a misbehaviour.
func faultShard(t *testing.T, serve func(w http.ResponseWriter, r *http.Request, sorted []uint32)) string {
	t.Helper()
	var mu sync.Mutex
	var sorted []uint32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/stream", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err != nil || len(raw)%4 != 0 {
			http.Error(w, "bad upload", http.StatusBadRequest)
			return
		}
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		mu.Lock()
		sorted = keys
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-00000001", "status": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := len(sorted)
		mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{
			"id": r.PathValue("id"), "status": "done",
			"result": map[string]any{
				"verified": true, "sorted": true, "write_nanos": 1.0,
				"extsort": map[string]any{"records": n, "runs": 1},
			},
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/output", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys := append([]uint32(nil), sorted...)
		mu.Unlock()
		serve(w, r, keys)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorRejectsFaultyShardOutput drives a fleet of shard
// doubles whose /output misbehaves after a clean, verified job report.
// Every fault must fail the sort; none may yield a verified Stats.
func TestCoordinatorRejectsFaultyShardOutput(t *testing.T) {
	send := func(w http.ResponseWriter, keys []uint32) { w.Write(encode(keys)) }
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter, r *http.Request, keys []uint32)
		hang  bool
	}{
		{name: "unsorted", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			keys[0], keys[len(keys)-1] = keys[len(keys)-1], keys[0]
			send(w, keys)
		}},
		{name: "out-of-range", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			// A shard below the top holds its upper splitter as its
			// largest key, so one past it is outside [Lo, Hi] yet below
			// the next shard's keys: order and counts still hold, and
			// only the range check can see it.
			keys[len(keys)-1]++
			send(w, keys)
		}},
		{name: "one-too-few", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			send(w, keys[:len(keys)-1])
		}},
		{name: "one-too-many", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			send(w, append(keys, keys[len(keys)-1]))
		}},
		{name: "truncated-mid-record", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			raw := encode(keys)
			w.Write(raw[:len(raw)-2])
		}},
		{name: "status-500", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
		}},
		{name: "abort-after-1KiB", serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			w.Write(encode(keys)[:1024])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{name: "hang-after-headers", hang: true, serve: func(w http.ResponseWriter, r *http.Request, keys []uint32) {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}},
	}
	keys := encode(dataset.Uniform(20000, 11))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := make([]string, 3)
			for i := range nodes {
				nodes[i] = faultShard(t, tc.serve)
			}
			co, err := cluster.New(cluster.Config{
				Nodes:      nodes,
				Job:        cluster.JobParams{Mode: "hybrid", T: 0.07, Seed: 9},
				MemBudget:  1 << 11,
				TempDir:    t.TempDir(),
				NewAuditor: auditorHook,
				WrapShard:  verify.WrapShards(),
			})
			if err != nil {
				t.Fatal(err)
			}
			timeout := time.Minute
			if tc.hang {
				timeout = 5 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			stats, err := co.Sort(ctx, bytes.NewReader(keys), io.Discard)
			if err == nil {
				t.Fatalf("sort succeeded over a faulty shard (Verified = %v)", stats.Verified)
			}
			t.Log(err)
			if stats.Verified {
				t.Errorf("failed sort returned Verified stats: %v", err)
			}
			if tc.hang != (ctx.Err() != nil) {
				t.Errorf("ctx.Err() = %v at return, err = %v", ctx.Err(), err)
			}
			if tc.hang && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("hang ended with %v, want the context deadline", err)
			}
		})
	}
}

func TestClientSubmitRetriesOn429(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sort/stream", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full, retry later"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-00000002"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := &cluster.Client{Node: ts.URL}
	id, err := cl.Submit(context.Background(), cluster.JobParams{Seed: 1}, func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(encode([]uint32{3, 1, 2}))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-00000002" {
		t.Fatalf("job id = %q", id)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one 429, one accept)", attempts)
	}
}

func TestCoordinatorWarmsTableFleet(t *testing.T) {
	nodes := startShards(t, 3)
	co, err := cluster.New(cluster.Config{
		Nodes:      nodes,
		Job:        cluster.JobParams{Mode: "auto", T: 0.07, Seed: 51},
		MemBudget:  1 << 13,
		TempDir:    t.TempDir(),
		WarmTables: true,
		NewAuditor: auditorHook,
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := dataset.Uniform(50000, 19)
	var out bytes.Buffer
	stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) < 2 {
		t.Fatalf("fan-out = %d shards; the warm relay needs > 1", len(stats.Shards))
	}
	if !stats.TableWarmed {
		t.Fatalf("TableWarmed = false: %s", stats.TableWarmError)
	}
	if !stats.Verified {
		t.Error("warmed cluster sort not verified")
	}
}

func TestCoordinatorConfigAndJobValidation(t *testing.T) {
	nodes := startShards(t, 1)
	// Every invalid config carries both audit hooks, so it fails for its
	// own reason, not for a missing hook.
	hooked := func(cfg cluster.Config) cluster.Config {
		cfg.NewAuditor, cfg.WrapShard = auditorHook, verify.WrapShards()
		return cfg
	}
	if _, err := cluster.New(hooked(cluster.Config{})); err == nil ||
		!strings.Contains(err.Error(), "at least one node") {
		t.Errorf("New with no nodes: err = %v", err)
	}
	if _, err := cluster.New(hooked(cluster.Config{Nodes: nodes, MaxShards: -1})); err == nil ||
		!strings.Contains(err.Error(), "MaxShards") {
		t.Errorf("New with negative MaxShards: err = %v", err)
	}
	noAuditor, noWrap := hooked(cluster.Config{Nodes: nodes}), hooked(cluster.Config{Nodes: nodes})
	noAuditor.NewAuditor, noWrap.WrapShard = nil, nil
	for _, cfg := range []cluster.Config{noAuditor, noWrap} {
		if _, err := cluster.New(cfg); err == nil || !strings.Contains(err.Error(), "required") {
			t.Errorf("New without both audit hooks: err = %v", err)
		}
	}
	if _, err := cluster.NewRing([]string{"a", "a"}, 4); err == nil {
		t.Error("NewRing with duplicate nodes succeeded")
	}

	keys := encode(dataset.Uniform(1000, 3))
	badJobs := []cluster.JobParams{
		{Algorithm: "bogosort", Seed: 1},
		{Backend: "no-such-backend", Seed: 1},
		{Backend: "spintronic", T: 0.07, Seed: 1}, // t is MLC-only
	}
	for _, job := range badJobs {
		co, err := cluster.New(hooked(cluster.Config{Nodes: nodes, Job: job, TempDir: t.TempDir()}))
		if err != nil {
			t.Fatalf("New(%+v): %v", job, err)
		}
		if _, err := co.Sort(context.Background(), bytes.NewReader(keys), io.Discard); err == nil {
			t.Errorf("Sort with job %+v succeeded", job)
		}
	}
}

// TestCoordinatorAlgorithmNames drives the pilot through each of the
// sortd API's algorithm names on a single-node fleet.
func TestCoordinatorAlgorithmNames(t *testing.T) {
	nodes := startShards(t, 1)
	keys := dataset.Uniform(3000, 7)
	for _, in := range sorts.Infos() {
		alg := in.Name
		co, err := cluster.New(cluster.Config{
			Nodes:      nodes,
			Job:        cluster.JobParams{Algorithm: alg, Mode: "auto", T: 0.07, Seed: 5},
			TempDir:    t.TempDir(),
			NewAuditor: auditorHook,
			WrapShard:  verify.WrapShards(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		stats, err := co.Sort(context.Background(), bytes.NewReader(encode(keys)), &out)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if stats.Records != int64(len(keys)) {
			t.Errorf("%s: records = %d", alg, stats.Records)
		}
		got := decode(t, out.Bytes())
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
			t.Errorf("%s: output not sorted", alg)
		}
	}
}

func TestRingMembershipAndLookupN(t *testing.T) {
	ring, err := cluster.NewRing([]string{"c", "a", "b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	nodes := ring.Nodes()
	if !sort.StringsAreSorted(nodes) || len(nodes) != 3 {
		t.Fatalf("Nodes() = %v, want 3 sorted entries", nodes)
	}
	nodes[0] = "mutated"
	if ring.Nodes()[0] == "mutated" {
		t.Error("Nodes() exposes internal state")
	}
	if got := ring.LookupN("key", 0); got != nil {
		t.Errorf("LookupN(0) = %v, want nil", got)
	}
	all := ring.LookupN("key", 99)
	if len(all) != 3 {
		t.Fatalf("LookupN over-asking returned %d nodes", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("LookupN returned %q twice", n)
		}
		seen[n] = true
	}
	if ring.Lookup("key") != all[0] {
		t.Error("Lookup disagrees with LookupN's first choice")
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	nodes := startShards(t, 1)
	c := &cluster.Client{Node: nodes[0]} // nil HTTP: default client path
	ctx := context.Background()

	_, err := c.Submit(ctx, cluster.JobParams{T: 99, Seed: 1}, func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(encode([]uint32{2, 1}))), nil
	})
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("Submit with absurd t: err = %v, want ShardError", err)
	}
	if se.Stage != "submit" || se.Node != nodes[0] {
		t.Errorf("ShardError = %+v", se)
	}
	if msg := se.Error(); !strings.Contains(msg, nodes[0]) || !strings.Contains(msg, "submit") {
		t.Errorf("Error() = %q missing node or stage", msg)
	}

	if _, err := c.Output(ctx, "job-99999999"); err == nil {
		t.Error("Output of unknown job succeeded")
	}
	if _, err := c.FetchTable(ctx, -5); err == nil {
		t.Error("FetchTable with invalid t succeeded")
	}
	if err := c.InstallTable(ctx, []byte(`{"params":{}}`)); err == nil {
		t.Error("InstallTable with invalid artifact succeeded")
	}
}

// TestQueryCodecRoundTrip pins that the coordinator's shard submission
// decodes back to the parameters it encoded, backend params included.
func TestQueryCodecRoundTrip(t *testing.T) {
	want := cluster.JobParams{
		Algorithm: "onesweep-lsd", Bits: 8, Mode: "hybrid", Backend: "spintronic",
		Params: map[string]float64{"saving": 0.5, "bit_error_prob": 1e-5},
		T:      0.0625, Seed: 1<<64 - 1, RunSize: 4096, FanIn: 8, Formation: "chunk", RefineAtMerge: true,
	}
	q := cluster.EncodeQuery(&want)
	if got := q.Get("params.saving"); got != "0.5" {
		t.Errorf("params.saving = %q in %v", got, q)
	}
	var got cluster.JobParams
	if err := cluster.DecodeQuery(q, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"x", "NaN", "-Inf"} {
		err := cluster.DecodeQuery(map[string][]string{"params.saving": {bad}}, &got)
		if err == nil || !strings.Contains(err.Error(), "bad params.saving") {
			t.Errorf("params.saving=%s: err = %v", bad, err)
		}
	}
}
