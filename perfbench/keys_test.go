package main

import (
	"slices"
	"testing"
)

func TestGenKeysDeterministic(t *testing.T) {
	a := genKeys("inmem-hybrid", 7, 0, 1000)
	if b := genKeys("inmem-hybrid", 7, 0, 1000); !slices.Equal(a, b) {
		t.Fatal("same seed gave different keys")
	}
	for name, other := range map[string][]uint32{
		"seed":     genKeys("inmem-hybrid", 8, 0, 1000),
		"input":    genKeys("inmem-hybrid", 7, 1, 1000),
		"workload": genKeys("inmem-auto", 7, 0, 1000),
	} {
		if slices.Equal(a, other) {
			t.Errorf("a different %s gave the same keys", name)
		}
	}
	if requestSeed("inmem-hybrid", 7, 0) == requestSeed("inmem-hybrid", 8, 0) {
		t.Error("a different seed gave the same request seed")
	}
}

func TestMakeInputsRepeat(t *testing.T) {
	w := workloads[0]
	w.pool, w.n = 2, 100
	a, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(w, 3)
	for i := range a {
		if !slices.Equal(a[i].body, b[i].body) || a[i].sum != b[i].sum || a[i].seed != b[i].seed {
			t.Fatalf("input %d differs between two generations with one seed", i)
		}
		if !slices.IsSorted(a[i].sorted) || checksum(a[i].sorted) != a[i].sum {
			t.Fatalf("input %d: reference is not a sorted permutation", i)
		}
	}
}

func TestChecksumIsAMultisetHash(t *testing.T) {
	if checksum([]uint32{1, 2, 3}) != checksum([]uint32{3, 1, 2}) {
		t.Error("checksum depends on order")
	}
	if checksum([]uint32{1, 2, 3}) == checksum([]uint32{1, 2, 4}) ||
		checksum([]uint32{1, 1, 2}) == checksum([]uint32{1, 2, 2}) {
		t.Error("checksum misses a changed key")
	}
}
