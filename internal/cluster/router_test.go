package cluster

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"approxsort/internal/dataset"
)

func TestPartitionerRoutesWithinRange(t *testing.T) {
	p, err := NewPartitioner([]uint32{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 4 {
		t.Fatalf("Shards = %d", p.Shards())
	}
	for _, key := range dataset.Uniform(20000, 3) {
		s := p.Route(key)
		lo, hi := p.Range(s)
		if key < lo || key > hi {
			t.Fatalf("key %d routed to shard %d with range [%d, %d]", key, s, lo, hi)
		}
	}
}

func TestPartitionerBoundaryRoundRobin(t *testing.T) {
	// A constant input equal to every splitter (the degenerate
	// fewdistinct case) must spread across all shards, not land on one.
	p, err := NewPartitioner([]uint32{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p.Shards())
	for i := 0; i < 4000; i++ {
		counts[p.Route(7)]++
	}
	for s, c := range counts {
		if c != 1000 {
			t.Fatalf("shard %d got %d of 4000 boundary keys, want exact round-robin: %v", s, c, counts)
		}
	}
}

func TestPartitionerSingleBoundaryAlternates(t *testing.T) {
	p, err := NewPartitioner([]uint32{50})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for i := 0; i < 10; i++ {
		counts[p.Route(50)]++
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("boundary key split %v, want 5/5", counts)
	}
	if s := p.Route(49); s != 0 {
		t.Fatalf("Route(49) = %d", s)
	}
	if s := p.Route(51); s != 1 {
		t.Fatalf("Route(51) = %d", s)
	}
}

func TestPartitionerDeterministic(t *testing.T) {
	keys := dataset.FewDistinct(5000, 8, 21)
	mk := func() []int {
		p, err := NewPartitioner([]uint32{1 << 10, 1 << 20, 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(keys))
		for i, k := range keys {
			out[i] = p.Route(k)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("routing diverged at %d", i)
		}
	}
}

func TestPartitionerRejectsUnsorted(t *testing.T) {
	if _, err := NewPartitioner([]uint32{5, 3}); err == nil {
		t.Fatal("unsorted splitters accepted")
	}
}

// TestPartitionSpoolMatchesRoute pins the chunked spool partitioner to
// per-key routing: on splitters with a repeated boundary and input heavy
// in boundary values, every shard file must hold exactly the bytes, and
// every count the records, that a fresh Partitioner's Route sends there
// key by key. A spool whose length is not a whole number of records —
// 1 to 3 trailing bytes, inside the first chunk or alone in a later one —
// must fail.
func TestPartitionSpoolMatchesRoute(t *testing.T) {
	splitters := []uint32{100, 5000, 5000, 5000, 9000}
	keys := dataset.Uniform(50000, 4)
	for i := range keys {
		switch i % 5 {
		case 0:
			keys[i] = 5000
		case 1:
			keys[i] = []uint32{100, 9000}[i%2]
		default:
			keys[i] %= 10000
		}
	}
	spoolBytes := func(keys []uint32, tail int) []byte {
		b := make([]byte, 0, 4*len(keys)+tail)
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
		return append(b, make([]byte, tail)...)
	}
	partition := func(t *testing.T, data []byte) (string, []int64, error) {
		dir := t.TempDir()
		spool := filepath.Join(dir, "spool.raw")
		if err := os.WriteFile(spool, data, 0o600); err != nil {
			t.Fatal(err)
		}
		part, err := NewPartitioner(splitters)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := partitionSpool(spool, dir, part)
		return dir, counts, err
	}

	dir, counts, err := partition(t, spoolBytes(keys, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPartitioner(splitters)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, ref.Shards())
	for _, k := range keys {
		s := ref.Route(k)
		want[s] = binary.LittleEndian.AppendUint32(want[s], k)
	}
	for s := range want {
		got, err := os.ReadFile(shardPath(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[s]) {
			t.Fatalf("shard %d: file holds %d bytes, per-key routing %d (or the bytes differ)", s, len(got), len(want[s]))
		}
		if counts[s] != int64(len(want[s])/4) {
			t.Fatalf("shard %d: count %d, per-key routing %d", s, counts[s], len(want[s])/4)
		}
	}

	for _, n := range []int{1000, 1 << 14} { // 1<<14 records fill the first 64 KiB chunk exactly
		for tail := 1; tail <= 3; tail++ {
			if _, _, err := partition(t, spoolBytes(keys[:n], tail)); err == nil {
				t.Errorf("%d records + %d trailing bytes: partitioned without error", n, tail)
			}
		}
	}
}
