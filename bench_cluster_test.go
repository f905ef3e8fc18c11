package approxsort_test

// Multi-node benchmarks behind BENCH_cluster.json. These measure the
// sharded-sortd pipeline's moving parts — the shard router and a full
// coordinator sort over an in-process fleet — at sizes that force real
// fan-out while staying bench-friendly. The full-scale scaling sweep is `sortload -nodes 1,3`
// against a real fleet (the cluster-smoke CI job).

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http/httptest"
	"testing"

	"approxsort/internal/cluster"
	"approxsort/internal/dataset"
	"approxsort/internal/server"
	"approxsort/internal/verify"
)

const benchClusterN = 300000

func benchEncode(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[4*i:], k)
	}
	return out
}

// benchFleet builds an in-process shard fleet and a coordinator over it.
func benchFleet(b *testing.B, shards, maxShards int) *cluster.Coordinator {
	b.Helper()
	nodes := make([]string, shards)
	for i := range nodes {
		s := server.New(server.Config{Workers: 2, StreamDir: b.TempDir()})
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		b.Cleanup(func() { s.Shutdown(context.Background()) })
		nodes[i] = ts.URL
	}
	co, err := cluster.New(cluster.Config{
		Nodes:      nodes,
		Job:        cluster.JobParams{Mode: "auto", T: 0.055, Seed: benchSeed},
		MaxShards:  maxShards,
		MemBudget:  benchClusterN / 12,
		TempDir:    b.TempDir(),
		NewAuditor: func(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) },
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return co
}

func benchClusterSort(b *testing.B, shards, maxShards int) {
	co := benchFleet(b, shards, maxShards)
	raw := benchEncode(dataset.Uniform(benchClusterN, benchSeed))
	b.SetBytes(4 * benchClusterN)
	b.ResetTimer()
	var stats cluster.Stats
	for i := 0; i < b.N; i++ {
		st, err := co.Sort(context.Background(), bytes.NewReader(raw), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Verified {
			b.Fatal("cluster sort not verified")
		}
		stats = st
	}
	b.ReportMetric(float64(len(stats.Shards)), "shards")
}

// BenchmarkClusterSort3Shards is the headline multi-node configuration:
// sample, partition, three verified shard jobs, and the range-pinned
// audited concatenation of their outputs.
func BenchmarkClusterSort3Shards(b *testing.B) { benchClusterSort(b, 3, 0) }

// BenchmarkClusterSort1Shard pins the fan-out to one node over the same
// input — the coordination overhead baseline the 3-shard run amortizes.
func BenchmarkClusterSort1Shard(b *testing.B) { benchClusterSort(b, 3, 1) }

// BenchmarkClusterRoute measures the shard router: one Route call per
// key against sampled splitters, the per-record cost of partitioning.
func BenchmarkClusterRoute(b *testing.B) {
	keys := dataset.Uniform(benchClusterN, benchSeed)
	part, err := cluster.NewPartitioner([]uint32{1 << 30, 1 << 31, 3 << 30})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 * benchClusterN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			part.Route(k)
		}
	}
}
