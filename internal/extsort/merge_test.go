package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"

	"approxsort/internal/dataset"
)

// fuzzRun is one run of a FuzzMergeRuns seed: its file bytes and the
// difference between the record count its runFile claims and the count
// its whole records make.
type fuzzRun struct {
	raw   []byte
	delta int8
}

// fuzzMergeInput encodes a FuzzMergeRuns input: one byte whose low four
// bits give the fan-in k−1 and high four bits the block size −1, then
// per run a length byte, a count-delta byte and the run's bytes.
func fuzzMergeInput(block int, runs ...fuzzRun) []byte {
	out := []byte{byte(len(runs)-1) | byte(block-1)<<4}
	for _, r := range runs {
		out = append(out, byte(len(r.raw)), byte(r.delta))
		out = append(out, r.raw...)
	}
	return out
}

// FuzzMergeRuns splits arbitrary bytes into k run files and merges them
// with mergeGroup. A well-formed input — every run whole records,
// non-decreasing, with an honest record count — must merge into the
// sorted concatenation with every record and every input file
// accounted for; any other input must fail with an error. Neither may
// panic.
func FuzzMergeRuns(f *testing.F) {
	// A run truncated mid-record, an unsorted run, record counts claimed
	// too high and too low, empty runs alone and beside a live one, and
	// duplicates across runs up to the largest key.
	f.Add(fuzzMergeInput(2, fuzzRun{raw: encode([]uint32{1, 2, 3})[:7]}))
	f.Add(fuzzMergeInput(2, fuzzRun{raw: encode([]uint32{5, 3, 9})}, fuzzRun{raw: encode([]uint32{1, 2, 3})}))
	f.Add(fuzzMergeInput(4, fuzzRun{raw: encode([]uint32{1, 2, 3}), delta: 2}))
	f.Add(fuzzMergeInput(4, fuzzRun{raw: encode([]uint32{1, 2, 3}), delta: -1}))
	f.Add(fuzzMergeInput(1, fuzzRun{}, fuzzRun{}, fuzzRun{}))
	f.Add(fuzzMergeInput(3, fuzzRun{}, fuzzRun{raw: encode([]uint32{4, 8})}, fuzzRun{}))
	f.Add(fuzzMergeInput(2,
		fuzzRun{raw: encode([]uint32{7, 7, 7, 9})},
		fuzzRun{raw: encode([]uint32{1, 7, 7})},
		fuzzRun{raw: encode([]uint32{7, ^uint32(0), ^uint32(0)})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k, block := 1+int(data[0]&15), 1+int(data[0]>>4)
		data = data[1:]
		dir := t.TempDir()
		st := &state{cfg: Config{Block: block}, dir: dir, merge: newMergeAccountant(block)}
		files := make([]runFile, k)
		var want []uint32
		valid := true
		for i := range files {
			var raw []byte
			var delta int8
			if len(data) >= 2 {
				n := min(int(data[0]), len(data)-2)
				delta = int8(data[1])
				raw, data = data[2:2+n], data[2+n:]
			}
			path := fmt.Sprintf("%s/run-%d", dir, i)
			if err := os.WriteFile(path, raw, 0o600); err != nil {
				t.Fatal(err)
			}
			if err := st.disk.add(int64(len(raw))); err != nil {
				t.Fatal(err)
			}
			files[i] = runFile{path: path, bytes: int64(len(raw)), records: int64(len(raw)/4 + int(delta))}
			keys := make([]uint32, len(raw)/4)
			for j := range keys {
				keys[j] = binary.LittleEndian.Uint32(raw[4*j:])
			}
			valid = valid && len(raw)%4 == 0 && delta == 0 && slices.IsSorted(keys)
			want = append(want, keys...)
		}
		var out bytes.Buffer
		n, err := st.mergeGroup(files, &out, false, 1)
		if !valid {
			if err == nil {
				t.Fatalf("malformed runs merged without error (%d records out)", n)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed runs failed to merge: %v", err)
		}
		slices.Sort(want)
		if n != int64(len(want)) || !bytes.Equal(out.Bytes(), encode(want)) {
			t.Fatalf("merged %d records, want the sorted concatenation of %d", n, len(want))
		}
		if st.disk.cur != 0 {
			t.Fatalf("%d spill bytes still live after the merge", st.disk.cur)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("%d run files left after the merge", len(left))
		}
	})
}

// BenchmarkMergeGroup times one k-way merge of 2^18 uniform keys split
// into k sorted run files of equal length, through mergeGroup into
// io.Discard at the default block size. Writing the run files is left
// out of the timing; ns/record is the merge's per-record cost, file
// reads included.
func BenchmarkMergeGroup(b *testing.B) {
	const n = 1 << 18
	keys := dataset.Uniform(n, 7)
	for _, k := range []int{8, 16} {
		runs := make([][]uint32, k)
		for i := range runs {
			runs[i] = slices.Clone(keys[i*n/k : (i+1)*n/k])
			slices.Sort(runs[i])
		}
		b.Run(fmt.Sprintf("fanin=%d", k), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := &state{cfg: Config{Block: 1 << 13}, dir: dir, merge: newMergeAccountant(1 << 13)}
				files := make([]runFile, k)
				for j, run := range runs {
					rf, err := writeRunFile(fmt.Sprintf("%s/run-%d", dir, j), run, &st.disk)
					if err != nil {
						b.Fatal(err)
					}
					files[j] = rf
				}
				b.StartTimer()
				if _, err := st.mergeGroup(files, io.Discard, false, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}
