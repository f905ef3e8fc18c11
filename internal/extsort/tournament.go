package extsort

// tournamentTree is an implicit binary winner tree over k uint64-keyed
// leaves — the selection structure of the k-way merge (keys ordered by
// (key, cursor)). Selecting the minimum is O(1); replacing the winner's
// key and restoring the invariant is one leaf-to-root replay, O(log k)
// with no allocation. Replacement selection, whose keys only grow, uses
// the cheaper radixHeap instead.
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
//
//memlint:hotpath
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
