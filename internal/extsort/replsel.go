package extsort

import (
	"fmt"

	"approxsort/internal/core"
	"approxsort/internal/mem"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
)

// Replacement-selection run formation (SNIPPETS.md §2; Knuth TAOCP vol. 3
// §5.4.1). A radix heap holds RunSize resident records keyed by
// (run, key): its minimum is the smallest key of the earliest open run.
// When a record arrives it evicts the current minimum from the selection
// buffer and is itself assigned a run at that moment — the evicted
// record's run if its key can still extend it (key ≥ the key just
// evicted), the next run otherwise. On uniform-random input the expected
// run length is 2×RunSize (the snowplow argument), which halves the run
// count and usually removes a merge pass relative to chunking.
//
// Unlike the textbook formulation — where the pop order itself emits the
// sorted run — records are staged per run in arrival order and each
// closed run is sorted as one batch on the hybrid memory system. The
// heap decides only membership. This keeps the per-run sort a
// genuine approx-refine workload (the pop order would already be sorted,
// degenerating the study) while preserving the 2× run length; the
// selection buffer is host bookkeeping, like the dataset generators, and
// the charged simulated work is exactly the per-run sort.
//
// Invariants (DESIGN.md §14):
//   - a record's run is fixed at insertion and never revisited;
//   - run tags are non-decreasing along the pop sequence, and at most
//     two runs (current, next) accept records at any moment, so exactly
//     two arrival-order staging buffers are live;
//   - run r closes when the heap's minimum first carries a later run
//     tag, after which no record can be tagged ≤ r;
//   - equal selection keys are equal records of one run, so which of
//     them the heap evicts first cannot change any run's membership.

// formReplacement forms runs by replacement selection, flushing each
// closed run through flushRun, and returns the spilled files in run
// order.
func (st *state) formReplacement(src *recordSource) ([]runFile, error) {
	// Selection keys pack (run, key) into one uint64 so the heap orders
	// by run first, key second.
	var queue radixHeap
	var stage [2][]uint32 // arrival-order staging for runs curRun, curRun+1
	for len(stage[0]) < st.runSize {
		k, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		stage[0] = append(stage[0], k)
		queue.push(uint64(k)) // run 0
	}
	st.stats.Records = src.records
	if len(stage[0]) == 0 {
		return nil, nil
	}

	curRun := 0
	var files []runFile
	closeThrough := func(run int) error {
		for curRun < run {
			if len(stage[curRun&1]) > 0 {
				fs, err := st.flushRun(stage[curRun&1])
				if err != nil {
					return err
				}
				files = append(files, fs...)
				stage[curRun&1] = stage[curRun&1][:0]
			}
			curRun++
		}
		return nil
	}

	for {
		x, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		st.stats.Records = src.records
		wk := queue.pop()
		run, key := int(wk>>32), uint32(wk)
		// The minimum is evicted (its record is already staged); x takes
		// its place and is assigned a run now: run if it can still extend
		// it, run+1 otherwise. Either way its selection key is ≥ wk, the
		// monotone order the radix heap requires.
		if err := closeThrough(run); err != nil {
			return nil, err
		}
		tag := run
		if x < key {
			tag = run + 1
			if tag >= 1<<31 {
				return nil, fmt.Errorf("extsort: run index overflow at record %d", src.records)
			}
		}
		stage[tag&1] = append(stage[tag&1], x)
		queue.push(uint64(tag)<<32 | uint64(x))
	}
	st.stats.Records = src.records

	// End of stream: every resident record is already staged with its
	// final tag (curRun or curRun+1), so no drain loop is needed — close
	// both live runs in order.
	if err := closeThrough(curRun + 2); err != nil {
		return nil, err
	}
	return files, nil
}

// formChunk is load-sort-store formation: read RunSize records, sort,
// spill, repeat. Runs have exactly RunSize records (the final one
// excepted); the original extsort discipline, kept for comparison and
// for inputs where arrival order correlates with key order (replacement
// selection degenerates to one giant run on sorted input, which is
// optimal anyway).
func (st *state) formChunk(src *recordSource) ([]runFile, error) {
	buf := make([]uint32, 0, st.runSize)
	var files []runFile
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		fs, err := st.flushRun(buf)
		if err != nil {
			return err
		}
		files = append(files, fs...)
		buf = buf[:0]
		return nil
	}
	for {
		k, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, k)
		st.stats.Records = src.records
		if len(buf) == st.runSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return files, nil
}

// preciseSortRun sorts one run with keys and IDs both in simulated
// precise memory — the formation mode the planner picks when the backend
// offers no write asymmetry. Accounting mirrors core's baseline: warm-up
// is uncharged, the sort's traffic is the run's formation cost.
func preciseSortRun(keys []uint32, cfg core.Config, seed uint64) ([]uint32, float64, error) {
	n := len(keys)
	space := mem.NewPreciseSpace()
	p := sorts.Pair{Keys: space.Alloc(n), IDs: space.Alloc(n)}
	mem.Load(p.Keys, keys)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	mem.Load(p.IDs, ids)
	space.ResetStats()
	cfg.Algorithm.Sort(p, sorts.Env{KeySpace: space, IDSpace: space, R: rng.New(seed), Scratch: &sorts.Scratch{}})
	out := mem.PeekAll(p.Keys) //nolint:memescape // result extraction after the accounted run, as in core.Run
	for i := 1; i < n; i++ {
		if out[i-1] > out[i] {
			return nil, 0, fmt.Errorf("extsort: precise run formation produced unsorted output at %d", i)
		}
	}
	return out, space.Stats().WriteNanos, nil
}
