package extsort

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"approxsort/internal/rng"
)

// tournamentTree is an implicit binary winner tree over k uint64-keyed
// leaves. Both phases of the external sort selected through it before
// they moved onto the radix heap; it stays here as the reference that
// referenceRuns and TestMergeHeapMatchesTree compare the heap against.
// Selecting the minimum is O(1); replacing the winner's key and
// restoring the invariant is one leaf-to-root replay, O(log k).
//
// Layout: the k leaves occupy implicit positions k..2k-1; node[1..k-1]
// are internal and store the winning (minimum) leaf index of their
// subtree, so node[1] is the overall winner. The shape works for any
// k ≥ 1, powers of two or not. Ties prefer the lower leaf index (the
// left child), which is what makes merge output deterministic for equal
// keys across fan-in groupings.
type tournamentTree struct {
	k    int
	key  []uint64 // per-leaf key, owned by the tree, written via update
	node []int32  // node[1..k-1]: winner leaf index of the subtree
}

// newTournamentTree builds a tree over the given leaf keys. The slice is
// retained and owned by the tree.
func newTournamentTree(key []uint64) *tournamentTree {
	k := len(key)
	t := &tournamentTree{k: k, key: key, node: make([]int32, k)}
	for n := k - 1; n >= 1; n-- {
		t.node[n] = t.winnerOf(t.child(2*n), t.child(2*n+1))
	}
	return t
}

// child resolves tree position c to the winning leaf of that subtree:
// positions ≥ k are leaves themselves, positions < k delegate to the
// stored subtree winner.
func (t *tournamentTree) child(c int) int32 {
	if c >= t.k {
		return int32(c - t.k)
	}
	return t.node[c]
}

func (t *tournamentTree) winnerOf(a, b int32) int32 {
	if t.key[a] <= t.key[b] {
		return a
	}
	return b
}

// winner returns the leaf index holding the minimum key.
func (t *tournamentTree) winner() int {
	if t.k == 1 {
		return 0
	}
	return int(t.node[1])
}

// update sets leaf's key and replays the path to the root.
func (t *tournamentTree) update(leaf int, key uint64) {
	t.key[leaf] = key
	for n := (leaf + t.k) >> 1; n >= 1; n >>= 1 {
		a, b := t.child(2*n), t.child(2*n+1)
		if t.key[a] <= t.key[b] {
			t.node[n] = a
		} else {
			t.node[n] = b
		}
	}
}

func TestTournamentTreeSelectsMinimum(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 13, 64} {
		keys := make([]uint64, k)
		for i := range keys {
			keys[i] = uint64((i*2654435761 + 7) % 1000)
		}
		tree := newTournamentTree(keys)
		// Repeatedly pop the winner and replace it with ever-larger
		// keys; the popped sequence must be non-decreasing and cover
		// every replacement exactly once.
		var last uint64
		next := uint64(1000)
		for i := 0; i < 5*k; i++ {
			w := tree.winner()
			got := tree.key[w]
			if i > 0 && got < last {
				t.Fatalf("k=%d: winner key %d after %d", k, got, last)
			}
			last = got
			tree.update(w, next)
			next++
		}
	}
}

func TestTournamentTreeTieBreaksByLeafIndex(t *testing.T) {
	keys := []uint64{7, 3, 3, 9}
	tree := newTournamentTree(keys)
	if w := tree.winner(); w != 1 {
		t.Fatalf("tie broke to leaf %d, want the lower index 1", w)
	}
}

// mergePop is one step of a k-way merge: the cursor (leaf) that yielded
// the record and the record's key.
type mergePop struct {
	leaf int
	key  uint32
}

// treeMergePops merges the sorted runs through the winner tree, the way
// runMergeLoop did before the radix heap: exhausted leaves hold the
// all-ones sentinel, which no key<<32|leaf composite reaches.
func treeMergePops(runs [][]uint32) []mergePop {
	const exhausted = ^uint64(0)
	keys := make([]uint64, len(runs))
	for i, r := range runs {
		keys[i] = exhausted
		if len(r) > 0 {
			keys[i] = uint64(r[0])<<32 | uint64(i)
		}
	}
	tree := newTournamentTree(keys)
	pos := make([]int, len(runs))
	var pops []mergePop
	for {
		leaf := tree.winner()
		k := tree.key[leaf]
		if k == exhausted {
			return pops
		}
		pops = append(pops, mergePop{leaf, uint32(k >> 32)})
		if pos[leaf]++; pos[leaf] == len(runs[leaf]) {
			tree.update(leaf, exhausted)
		} else {
			tree.update(leaf, uint64(runs[leaf][pos[leaf]])<<32|uint64(leaf))
		}
	}
}

// heapMergePops merges the sorted runs through the radix heap with
// runMergeLoop's discipline: one composite per live cursor, the leaf
// read back from the popped composite, nothing pushed for an exhausted
// cursor.
func heapMergePops(runs [][]uint32) []mergePop {
	var h radixHeap
	live := 0
	for i, r := range runs {
		if len(r) > 0 {
			h.push(uint64(r[0])<<32 | uint64(i))
			live++
		}
	}
	pos := make([]int, len(runs))
	var pops []mergePop
	for live > 0 {
		top := h.pop()
		leaf := int(uint32(top))
		pops = append(pops, mergePop{leaf, uint32(top >> 32)})
		if pos[leaf]++; pos[leaf] == len(runs[leaf]) {
			live--
		} else {
			h.push(uint64(runs[leaf][pos[leaf]])<<32 | uint64(leaf))
		}
	}
	return pops
}

// TestMergeHeapMatchesTree checks that the radix heap pops exactly the
// sequence the winner tree pops — same cursor and same key at every
// step, so ties between cursors and the order in which cursors exhaust
// (and unlink their files) are unchanged — at fan-ins 1–16 over
// full-range keys, duplicate-heavy keys and runs of very uneven length,
// empty runs included. The same runs then go through the production
// mergeGroup, which must write the tree's key sequence and unlink every
// input.
func TestMergeHeapMatchesTree(t *testing.T) {
	gens := map[string]func(r *rng.Source) uint32{
		"uniform":    func(r *rng.Source) uint32 { return r.Uint32() },
		"duplicates": func(r *rng.Source) uint32 { return uint32(r.Intn(4)) },
		"extremes":   func(r *rng.Source) uint32 { return ^uint32(0) - uint32(r.Intn(2)) },
	}
	for name, gen := range gens {
		for k := 1; k <= 16; k++ {
			for seed := uint64(1); seed <= 4; seed++ {
				r := rng.New(seed*100 + uint64(k))
				runs := make([][]uint32, k)
				for i := range runs {
					// Lengths from 0 to ~500, so cursors exhaust at
					// very different points.
					n := r.Intn(8) * r.Intn(64)
					run := make([]uint32, n)
					for j := range run {
						run[j] = gen(r)
					}
					slices.Sort(run)
					runs[i] = run
				}
				want := treeMergePops(runs)
				got := heapMergePops(runs)
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d seed %d: heap pops differ from the tree's (%d vs %d pops)",
						name, k, seed, len(got), len(want))
				}
				checkMergeGroupKeys(t, fmt.Sprintf("%s k=%d seed %d", name, k, seed), runs, want)
			}
		}
	}
}

// checkMergeGroupKeys spills runs to files, merges them with mergeGroup
// through a 3-record block (so refills land mid-merge) and compares the
// output with the reference pops' keys.
func checkMergeGroupKeys(t *testing.T, label string, runs [][]uint32, want []mergePop) {
	t.Helper()
	dir := t.TempDir()
	st := &state{cfg: Config{Block: 3}, dir: dir, merge: newMergeAccountant(3)}
	files := make([]runFile, len(runs))
	for i, run := range runs {
		rf, err := writeRunFile(fmt.Sprintf("%s/run-%d", dir, i), run, &st.disk)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = rf
	}
	var out bytes.Buffer
	n, err := st.mergeGroup(files, &out, false, 1)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	keys := make([]uint32, len(want))
	for i, p := range want {
		keys[i] = p.key
	}
	if n != int64(len(keys)) || !slices.Equal(decode(t, out.Bytes()), keys) {
		t.Fatalf("%s: mergeGroup output differs from the tree's key sequence", label)
	}
	if st.disk.cur != 0 {
		t.Fatalf("%s: %d spill bytes still live after the merge", label, st.disk.cur)
	}
}
