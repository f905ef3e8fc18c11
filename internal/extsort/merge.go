package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"approxsort/internal/mem"
)

// mergeAccountant charges the merge passes' output traffic to simulated
// precise memory: every merged record is staged through a block-sized
// window of precise words before it is encoded to disk, so each full
// pass costs exactly one precise write per record — the merge term of
// the (M, B, ω) cost model. One accountant spans all passes of a sort.
type mergeAccountant struct {
	space *mem.PreciseSpace
	stage mem.Words
	block int
}

func newMergeAccountant(block int) *mergeAccountant {
	a := &mergeAccountant{space: mem.NewPreciseSpace(), block: block}
	a.stage = a.space.Alloc(block)
	a.space.ResetStats()
	return a
}

// charge stages one output block (or final partial block) through the
// precise window.
func (a *mergeAccountant) charge(buf []uint32) {
	mem.SetSlice(a.stage, 0, buf)
}

func (a *mergeAccountant) totals() (writes int64, writeNanos float64) {
	st := a.space.Stats()
	return int64(st.Writes), st.WriteNanos
}

// cursor streams one sorted run file in decoded blocks, verifying
// monotonicity as it goes (a run that ever yields a decreasing key is
// corruption, reported instead of silently merged). A cursor closes and
// unlinks its file the moment it is exhausted — the earliest point the
// bytes are dead — which keeps the live spill footprint near n instead
// of 2n.
type cursor struct {
	f       *os.File // nil once closed
	rf      runFile
	disk    *diskTracker
	raw     []byte
	buf     []uint32
	i, n    int
	prev    uint32
	started bool
	got     int64
	done    bool
}

func openCursor(rf runFile, blockRecords int, disk *diskTracker) (*cursor, error) {
	f, err := os.Open(rf.path)
	if err != nil {
		return nil, err
	}
	c := &cursor{
		f:    f,
		rf:   rf,
		disk: disk,
		raw:  make([]byte, 4*blockRecords),
		buf:  make([]uint32, blockRecords),
	}
	if err := c.fill(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// fill decodes the next block. On end of stream it validates the record
// count, closes and unlinks the run, and marks the cursor done.
func (c *cursor) fill() error {
	if c.done {
		return nil
	}
	nb, err := io.ReadFull(c.f, c.raw)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		if nb%4 != 0 {
			return fmt.Errorf("extsort: run %s truncated mid-record", c.rf.path)
		}
		if nb == 0 {
			if c.got != c.rf.records {
				return fmt.Errorf("extsort: run %s has %d records, expected %d", c.rf.path, c.got, c.rf.records)
			}
			c.done = true
			c.close()
			c.rf.remove(c.disk)
			return nil
		}
	} else if err != nil {
		return fmt.Errorf("extsort: reading run: %w", err)
	}
	c.n = nb / 4
	c.i = 0
	for i := 0; i < c.n; i++ {
		k := binary.LittleEndian.Uint32(c.raw[4*i:])
		if c.started && k < c.prev {
			return fmt.Errorf("extsort: run %s not sorted at record %d (%d after %d)", c.rf.path, c.got+int64(i), k, c.prev)
		}
		c.prev = k
		c.started = true
		c.buf[i] = k
	}
	c.got += int64(c.n)
	return nil
}

func (c *cursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// mergeWriter assembles merge output in block-sized batches: each full
// block is charged to the accountant (one precise write per record),
// encoded, and flushed to the underlying writer. Write errors are sticky
// in err so the hot loop stays branch-light.
type mergeWriter struct {
	bw      *bufio.Writer
	acct    *mergeAccountant
	disk    *diskTracker // nil when writing the final output
	block   []uint32
	enc     []byte
	fill    int
	written int64
	blocks  int64
	onBlock func(written int64) // progress hook, called outside the hot path
	err     error
}

func newMergeWriter(w io.Writer, acct *mergeAccountant, disk *diskTracker, onBlock func(int64)) *mergeWriter {
	return &mergeWriter{
		bw:      bufio.NewWriterSize(w, 1<<16),
		acct:    acct,
		disk:    disk,
		block:   make([]uint32, acct.block),
		enc:     make([]byte, 4*acct.block),
		onBlock: onBlock,
	}
}

// push appends one record to the current block.
//
//memlint:hotpath
func (w *mergeWriter) push(k uint32) {
	w.block[w.fill] = k
	w.fill++
	if w.fill == len(w.block) {
		w.flushBlock()
	}
}

func (w *mergeWriter) flushBlock() {
	if w.err != nil || w.fill == 0 {
		return
	}
	blk := w.block[:w.fill]
	w.acct.charge(blk)
	for i, k := range blk {
		binary.LittleEndian.PutUint32(w.enc[4*i:], k)
	}
	if w.disk != nil {
		if err := w.disk.add(int64(4 * w.fill)); err != nil {
			w.err = err
			return
		}
	}
	if _, err := w.bw.Write(w.enc[:4*w.fill]); err != nil {
		w.err = fmt.Errorf("extsort: writing output: %w", err)
		return
	}
	w.written += int64(w.fill)
	w.fill = 0
	w.blocks++
	if w.onBlock != nil && w.blocks%256 == 0 {
		w.onBlock(w.written)
	}
}

func (w *mergeWriter) finish() error {
	w.flushBlock()
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("extsort: writing output: %w", err)
	}
	return nil
}

// runMergeLoop drains the cursors through the radix heap into the
// writer. Each live cursor holds one composite key<<32|leaf in the heap,
// so a pop yields the record and its cursor. The composites are unique
// among live cursors and a cursor's next key is never below the one just
// popped (fill rejects a decreasing run first), so the pushes stay
// monotone and the pops come in (key, leaf) order. An exhausted cursor
// pushes nothing; the loop ends when no live cursor is left. Block
// refills and block flushes happen in the (unannotated) concrete helpers.
//
//memlint:hotpath
func runMergeLoop(h *radixHeap, live int, curs []*cursor, w *mergeWriter) error {
	for live > 0 {
		top := h.pop()
		w.push(uint32(top >> 32))
		if w.err != nil {
			return w.err
		}
		leaf := uint32(top)
		c := curs[leaf]
		c.i++
		if c.i == c.n {
			if err := c.fill(); err != nil {
				return err
			}
		}
		if c.done {
			live--
		} else {
			h.push(uint64(c.buf[c.i])<<32 | uint64(leaf))
		}
	}
	return nil
}

// mergeGroup merges a group of sorted files into out. Inputs are
// unlinked as their cursors exhaust. toDisk charges the output bytes to
// the disk tracker (intermediate pass); the final merge into the
// caller's writer does not.
func (st *state) mergeGroup(files []runFile, out io.Writer, toDisk bool, pass int) (int64, error) {
	curs := make([]*cursor, len(files))
	defer func() {
		for _, c := range curs {
			if c != nil {
				c.close()
			}
		}
	}()
	var (
		want int64
		h    radixHeap
		live int
	)
	for i, rf := range files {
		c, err := openCursor(rf, st.cfg.Block, &st.disk)
		if err != nil {
			return 0, err
		}
		curs[i] = c
		want += rf.records
		if !c.done {
			h.push(uint64(c.buf[0])<<32 | uint64(i))
			live++
		}
	}
	var disk *diskTracker
	if toDisk {
		disk = &st.disk
	}
	mw := newMergeWriter(out, st.merge, disk, func(written int64) {
		st.progress("merge", pass, written)
	})
	if err := runMergeLoop(&h, live, curs, mw); err != nil {
		return 0, err
	}
	if err := mw.finish(); err != nil {
		return 0, err
	}
	if mw.written != want {
		return 0, fmt.Errorf("extsort: merge lost records: wrote %d of %d", mw.written, want)
	}
	st.progress("merge", pass, mw.written)
	return mw.written, nil
}

func (st *state) mergeGroupToFile(files []runFile, path string, pass int) (runFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return runFile{}, err
	}
	n, err := st.mergeGroup(files, f, true, pass)
	if err != nil {
		f.Close()
		return runFile{}, err
	}
	if err := f.Close(); err != nil {
		return runFile{}, err
	}
	return runFile{path: path, bytes: 4 * n, records: n}, nil
}

// collapseFragments is the fragment-aware fan-in allocator for
// refine-at-merge: part pairs double the cursor count, but the REM
// fragments carry only Rem~ records each, so once 2·runs exceeds the
// fan-in it is far cheaper to pre-fold the smallest files together
// (cost ≈ the REM volume) than to pay a full extra level pass over all
// records. Each group merges the min(fanIn, len−fanIn+1) smallest files
// — the greedy optimal-merge-pattern choice — until the survivors fit a
// single final pass. Collapse traffic is charged through the same
// accountant as the passes and ledgered separately in
// Stats.CollapsedRecords so MergeWrites stays exactly reconcilable.
func (st *state) collapseFragments(files []runFile) ([]runFile, error) {
	group := 0
	for len(files) > st.fanIn {
		sort.SliceStable(files, func(i, j int) bool { return files[i].records < files[j].records })
		k := len(files) - st.fanIn + 1
		if k > st.fanIn {
			k = st.fanIn
		}
		path := filepath.Join(st.dir, fmt.Sprintf("collapse-%d.run", group))
		rf, err := st.mergeGroupToFile(files[:k], path, 0)
		if err != nil {
			return nil, err
		}
		st.stats.FragmentCollapses++
		st.stats.CollapsedRecords += rf.records
		files = append(files[k:], rf)
		group++
	}
	return files, nil
}

// mergeAll merges the level-0 files down to the output writer,
// FanIn-wide per group, one level per pass. Every pass streams all
// records, matching the cost model's passes×n merge writes; under
// refine-at-merge a fragment collapse first folds excess small part
// files so the level structure never pays a full pass for them.
func (st *state) mergeAll(files []runFile, w io.Writer) error {
	switch len(files) {
	case 0:
		return nil
	case 1:
		// A single ordinary run needs no merge: stream it out. (A
		// refine-at-merge run always has two part files.)
		st.stats.MergePasses = 0
		return copyOut(files[0], w, &st.disk)
	}
	if st.refineAtMerge && len(files) > st.fanIn {
		var err error
		if files, err = st.collapseFragments(files); err != nil {
			return err
		}
	}
	level := 0
	for len(files) > st.fanIn {
		next := make([]runFile, 0, (len(files)+st.fanIn-1)/st.fanIn)
		for lo := 0; lo < len(files); lo += st.fanIn {
			hi := lo + st.fanIn
			if hi > len(files) {
				hi = len(files)
			}
			path := filepath.Join(st.dir, fmt.Sprintf("merge-%d-%d.run", level, lo))
			rf, err := st.mergeGroupToFile(files[lo:hi], path, st.stats.MergePasses+1)
			if err != nil {
				return err
			}
			next = append(next, rf)
		}
		files = next
		level++
		st.stats.MergePasses++
	}
	st.stats.MergePasses++
	n, err := st.mergeGroup(files, w, false, st.stats.MergePasses)
	if err != nil {
		return err
	}
	if n != st.stats.Records {
		return fmt.Errorf("extsort: record count not conserved: %d in, %d out", st.stats.Records, n)
	}
	return nil
}
