package extsort

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/rng"
)

// TestRadixHeapPopsInOrder is the radix heap's property test: under any
// interleaving of pops and monotone pushes, every pop returns the
// minimum of the resident multiset. Keys come from three generators —
// full-width random, a handful of values (duplicates) and selection keys
// whose run tag jumps. Each case starts with a batch of pushes and ends
// by draining the heap.
func TestRadixHeapPopsInOrder(t *testing.T) {
	type gen func(r *rng.Source, last uint64) uint64
	gens := map[string]gen{
		"random": func(r *rng.Source, last uint64) uint64 {
			d := r.Uint64() >> uint(r.Intn(64))
			return last + min(d, ^uint64(0)-last)
		},
		"duplicates": func(r *rng.Source, last uint64) uint64 {
			return last + uint64(r.Intn(3))
		},
		"run-jumps": func(r *rng.Source, last uint64) uint64 {
			run, key := last>>32, uint32(last)
			switch r.Intn(4) {
			case 0:
				run++
				key = r.Uint32()
			case 1:
				run += uint64(1 + r.Intn(1000))
				key = r.Uint32()
			default:
				if k := r.Uint32(); k >= key {
					key = k
				}
			}
			return run<<32 | uint64(key)
		},
	}
	for name, next := range gens {
		for seed := uint64(1); seed <= 20; seed++ {
			r := rng.New(seed)
			var h radixHeap
			var ref []uint64
			popped := uint64(0)
			push := func() {
				k := next(r, popped)
				h.push(k)
				ref = append(ref, k)
			}
			pop := func(step int) {
				i := slices.Index(ref, slices.Min(ref))
				want := ref[i]
				ref = slices.Delete(ref, i, i+1)
				if got := h.pop(); got != want {
					t.Fatalf("%s seed %d step %d: pop %#x, want %#x", name, seed, step, got, want)
				}
				popped = want
			}
			for range 1 + r.Intn(256) { // formReplacement's run-0 fill
				push()
			}
			for step := 0; step < 4000; step++ {
				switch {
				case len(ref) == 0:
					push()
				case r.Intn(8) == 0:
					pop(step) // shrink
				case r.Intn(8) == 0:
					push() // grow
				default:
					pop(step) // replacement selection's pop-then-push
					push()
				}
			}
			for step := 0; len(ref) > 0; step++ {
				pop(step)
			}
			if h.eq != 0 || h.used != 0 {
				t.Fatalf("%s seed %d: drained heap still holds eq=%d used=%#x", name, seed, h.eq, h.used)
			}
		}
	}
}

// referenceRuns is the tournament-tree replacement selection that run
// formation used before the radix heap, kept as the membership
// reference: it returns each run's records in arrival order.
func referenceRuns(keys []uint32, m int) [][]uint32 {
	n := min(m, len(keys))
	if n == 0 {
		return nil
	}
	slot := make([]uint64, n)
	var stage [2][]uint32
	for i, k := range keys[:n] {
		slot[i] = uint64(k)
		stage[0] = append(stage[0], k)
	}
	tree := newTournamentTree(slot)
	var runs [][]uint32
	curRun := 0
	closeThrough := func(run int) {
		for ; curRun < run; curRun++ {
			if len(stage[curRun&1]) > 0 {
				runs = append(runs, stage[curRun&1])
				stage[curRun&1] = nil
			}
		}
	}
	for _, x := range keys[n:] {
		leaf := tree.winner()
		wk := tree.key[leaf]
		run, key := int(wk>>32), uint32(wk)
		closeThrough(run)
		tag := run
		if x < key {
			tag++
		}
		stage[tag&1] = append(stage[tag&1], x)
		tree.update(leaf, uint64(tag)<<32|uint64(x))
	}
	closeThrough(curRun + 2)
	return runs
}

// runRecorder is a Verifier that keeps a copy of every precise run's
// input, which is the run's records in arrival order.
type runRecorder struct{ runs [][]uint32 }

func (r *runRecorder) VerifyHybridRun([]uint32, core.Result) error {
	return errors.New("unexpected hybrid run")
}

func (r *runRecorder) VerifyPartsRun([]uint32, core.Parts) error {
	return errors.New("unexpected refine-at-merge run")
}

func (r *runRecorder) VerifyPreciseRun(input, _ []uint32) error {
	r.runs = append(r.runs, slices.Clone(input))
	return nil
}

// TestReplacementMembership checks that replacement selection on the
// radix heap forms exactly the runs the tournament-tree loop formed:
// the same run count and, run by run, the same records in the same
// arrival order, across stream shapes and buffer sizes down to M = 1.
func TestReplacementMembership(t *testing.T) {
	streams := map[string]func(n int) []uint32{
		"uniform":     func(n int) []uint32 { return dataset.Uniform(n, 21) },
		"sorted":      dataset.Sorted,
		"reverse":     dataset.Reverse,
		"fewdistinct": func(n int) []uint32 { return dataset.FewDistinct(n, 5, 22) },
		"constant":    func(n int) []uint32 { return dataset.FewDistinct(n, 1, 23) },
	}
	for name, gen := range streams {
		for _, m := range []int{1, 2, 7, 4096} {
			// Small buffers make runs of a few records each; 1000 keys
			// keep their run files few, and 3×M more give a large
			// buffer several runs.
			keys := gen(1000 + 3*m)
			t.Run(fmt.Sprintf("%s/M=%d", name, m), func(t *testing.T) {
				rec := &runRecorder{}
				cfg := testConfig(t, m, 16)
				cfg.Precise = true
				cfg.Verifier = rec
				var out bytes.Buffer
				stats, err := SortStream(bytes.NewReader(encode(keys)), &out, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkSorted(t, keys, decode(t, out.Bytes()))
				want := referenceRuns(keys, m)
				if stats.Runs != len(want) || len(rec.runs) != len(want) {
					t.Fatalf("%d runs (%d recorded), reference %d", stats.Runs, len(rec.runs), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(rec.runs[i], want[i]) {
						t.Fatalf("run %d: %d records differ from the reference's %d", i, len(rec.runs[i]), len(want[i]))
					}
				}
			})
		}
	}
}

// BenchmarkReplacementQueue times replacement selection's selection step
// on the radix heap: one pop and one push per record, M = 32768
// resident uniform keys, with the run tagging formReplacement applies.
func BenchmarkReplacementQueue(b *testing.B) {
	const m = 1 << 15
	keys := dataset.Uniform(1<<20, 3)
	var h radixHeap
	for _, k := range keys[:m] {
		h.push(uint64(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := keys[(m+i)&(len(keys)-1)]
		wk := h.pop()
		tag := wk >> 32
		if x < uint32(wk) {
			tag++
		}
		h.push(tag<<32 | uint64(x))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}
