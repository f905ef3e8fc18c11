package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/mem"
	"approxsort/internal/sorts"
)

func encode(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[i*4:], k)
	}
	return out
}

func decode(t *testing.T, data []byte) []uint32 {
	t.Helper()
	if len(data)%4 != 0 {
		t.Fatalf("output not word aligned: %d bytes", len(data))
	}
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}

// mlcSpace returns the MLC PCM space constructor at half-width t.
func mlcSpace(t float64) func(seed uint64) core.Space {
	return func(seed uint64) core.Space { return mem.NewApproxSpaceAt(t, seed) }
}

func testConfig(t *testing.T, runSize, fanIn int) Config {
	return Config{
		Core:    core.Config{Algorithm: sorts.MSD{Bits: 6}, NewSpace: mlcSpace(0.07), Seed: 9},
		RunSize: runSize,
		FanIn:   fanIn,
		TempDir: t.TempDir(),
	}
}

// chunkConfig pins the original load-sort-store discipline, whose run
// counts are exact.
func chunkConfig(t *testing.T, runSize, fanIn int) Config {
	cfg := testConfig(t, runSize, fanIn)
	cfg.Formation = FormationChunk
	return cfg
}

func runSort(t *testing.T, keys []uint32, cfg Config) ([]uint32, Stats) {
	t.Helper()
	var out bytes.Buffer
	stats, err := SortStream(bytes.NewReader(encode(keys)), &out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return decode(t, out.Bytes()), stats
}

func checkSorted(t *testing.T, keys, got []uint32) {
	t.Helper()
	want := append([]uint32(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output wrong at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestSortStreamSingleRun(t *testing.T) {
	keys := dataset.Uniform(3000, 1)
	got, stats := runSort(t, keys, testConfig(t, 10000, 4))
	checkSorted(t, keys, got)
	if stats.Runs != 1 || stats.MergePasses != 0 {
		t.Errorf("runs=%d passes=%d, want 1/0", stats.Runs, stats.MergePasses)
	}
	if stats.Records != 3000 {
		t.Errorf("Records = %d", stats.Records)
	}
}

func TestSortStreamMultiRunChunk(t *testing.T) {
	keys := dataset.Uniform(25000, 2)
	got, stats := runSort(t, keys, chunkConfig(t, 4000, 16))
	checkSorted(t, keys, got)
	if stats.Runs != 7 {
		t.Errorf("Runs = %d, want 7", stats.Runs)
	}
	if stats.MergePasses != 1 {
		t.Errorf("MergePasses = %d, want 1", stats.MergePasses)
	}
	if stats.HybridWriteNanos <= 0 {
		t.Error("no hybrid write accounting")
	}
}

func TestSortStreamMultiPassMergeChunk(t *testing.T) {
	keys := dataset.Uniform(20000, 3)
	got, stats := runSort(t, keys, chunkConfig(t, 1000, 2)) // 20 runs, fan-in 2
	checkSorted(t, keys, got)
	if stats.Runs != 20 {
		t.Errorf("Runs = %d, want 20", stats.Runs)
	}
	if stats.MergePasses < 4 {
		t.Errorf("MergePasses = %d, want >= 4 for 20 runs at fan-in 2", stats.MergePasses)
	}
}

func TestSortStreamEmpty(t *testing.T) {
	got, stats := runSort(t, nil, testConfig(t, 1000, 4))
	if len(got) != 0 || stats.Records != 0 || stats.Runs != 0 {
		t.Errorf("empty input: got %d records, stats %+v", len(got), stats)
	}
}

func TestSortStreamPartialFinalRunChunk(t *testing.T) {
	keys := dataset.Uniform(4500, 4) // 4 full runs of 1000 + one of 500
	got, stats := runSort(t, keys, chunkConfig(t, 1000, 8))
	checkSorted(t, keys, got)
	if stats.Runs != 5 {
		t.Errorf("Runs = %d, want 5", stats.Runs)
	}
}

func TestSortStreamDuplicatesAcrossRuns(t *testing.T) {
	keys := dataset.FewDistinct(8000, 3, 5)
	got, _ := runSort(t, keys, testConfig(t, 1000, 3))
	checkSorted(t, keys, got)
}

func TestSortStreamTruncatedInput(t *testing.T) {
	data := encode(dataset.Uniform(10, 6))
	var out bytes.Buffer
	_, err := SortStream(bytes.NewReader(data[:len(data)-2]), &out, testConfig(t, 100, 4))
	if err == nil {
		t.Fatal("truncated input accepted")
	}
	// Truncation beyond the first run must also error, not flush a
	// silently shortened tail run.
	big := encode(dataset.Uniform(900, 6))
	_, err = SortStream(bytes.NewReader(big[:len(big)-3]), &out, chunkConfig(t, 100, 4))
	if err == nil {
		t.Fatal("mid-stream truncation accepted")
	}
}

func TestSortStreamConfigValidation(t *testing.T) {
	var out bytes.Buffer
	cfg := testConfig(t, 100, 4)
	cfg.Core.Algorithm = nil
	if _, err := SortStream(bytes.NewReader(nil), &out, cfg); err == nil {
		t.Error("missing algorithm accepted")
	}
	cfg = testConfig(t, 100, 1)
	if _, err := SortStream(bytes.NewReader(nil), &out, cfg); err == nil {
		t.Error("FanIn=1 accepted")
	}
	cfg = testConfig(t, 100, 4)
	cfg.Formation = "bogus"
	if _, err := SortStream(bytes.NewReader(nil), &out, cfg); err == nil {
		t.Error("unknown formation accepted")
	}
	cfg = testConfig(t, 100, 4)
	cfg.Precise = true
	cfg.RefineAtMerge = true
	if _, err := SortStream(bytes.NewReader(nil), &out, cfg); err == nil {
		t.Error("Precise+RefineAtMerge accepted")
	}
	cfg = testConfig(t, 100, 4)
	cfg.AutoPlan = true
	if _, err := SortStream(bytes.NewReader(nil), &out, cfg); err == nil {
		t.Error("AutoPlan without TotalRecords accepted")
	}
}

func TestSortStreamHighCorruption(t *testing.T) {
	// Even at near-zero guard bands the external sort must be exact,
	// because each run is refined before spilling.
	cfg := testConfig(t, 2000, 4)
	cfg.Core.NewSpace = mlcSpace(0.12)
	keys := dataset.Uniform(9000, 7)
	got, stats := runSort(t, keys, cfg)
	checkSorted(t, keys, got)
	if stats.RemTildeTotal == 0 {
		t.Error("expected nonzero refine remainders at T=0.12")
	}
}

func TestSortStreamQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 3000 {
			raw = raw[:3000]
		}
		cfg := testConfig(t, 700, 2)
		var out bytes.Buffer
		_, err := SortStream(bytes.NewReader(encode(raw)), &out, cfg)
		if err != nil {
			return false
		}
		got := make([]uint32, len(raw))
		for i := range got {
			got[i] = binary.LittleEndian.Uint32(out.Bytes()[i*4:])
		}
		want := append([]uint32(nil), raw...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// --- Replacement selection ---

func TestReplacementRunLengthOnUniform(t *testing.T) {
	// The snowplow argument: on uniform-random input replacement
	// selection emits runs of expected length 2×RunSize. The acceptance
	// floor is 1.8×.
	keys := dataset.Uniform(120000, 11)
	got, stats := runSort(t, keys, testConfig(t, 5000, 8))
	checkSorted(t, keys, got)
	if stats.Formation != FormationReplacement {
		t.Fatalf("default formation = %q", stats.Formation)
	}
	if mean := stats.MeanRunLength(); mean < 1.8*5000 {
		t.Errorf("mean run length %.0f < 1.8×RunSize %d", mean, 5000)
	}
	if stats.Runs >= 120000/5000 {
		t.Errorf("Runs = %d, expected fewer than chunking's %d", stats.Runs, 120000/5000)
	}
}

func TestReplacementSortedInputSingleRun(t *testing.T) {
	// Already-sorted input never terminates a run: one run regardless of
	// size (the discipline's best case).
	keys := dataset.Sorted(30000)
	got, stats := runSort(t, keys, testConfig(t, 1000, 4))
	checkSorted(t, keys, got)
	if stats.Runs != 1 {
		t.Errorf("Runs = %d on sorted input, want 1", stats.Runs)
	}
}

func TestReplacementReverseInputRunSize(t *testing.T) {
	// Reverse-sorted input is the adversarial case: every record starts
	// a fresh slot in the next run, so runs collapse to exactly RunSize.
	keys := dataset.Reverse(8000)
	got, stats := runSort(t, keys, testConfig(t, 1000, 16))
	checkSorted(t, keys, got)
	if stats.Runs != 8 {
		t.Errorf("Runs = %d on reverse input, want 8", stats.Runs)
	}
}

func TestReplacementPerRunFold(t *testing.T) {
	keys := dataset.Uniform(40000, 13)
	_, stats := runSort(t, keys, testConfig(t, 2000, 4))
	if len(stats.PerRun) != stats.Runs {
		t.Fatalf("PerRun has %d entries for %d runs", len(stats.PerRun), stats.Runs)
	}
	var recs int64
	var rem int
	var nanos float64
	for _, ri := range stats.PerRun {
		recs += int64(ri.Records)
		rem += ri.RemTilde
		nanos += ri.WriteNanos
	}
	if recs != stats.Records {
		t.Errorf("per-run records %d != total %d", recs, stats.Records)
	}
	if rem != stats.RemTildeTotal {
		t.Errorf("per-run Rem~ %d != total %d", rem, stats.RemTildeTotal)
	}
	if nanos != stats.HybridWriteNanos {
		t.Errorf("per-run write nanos %g != total %g", nanos, stats.HybridWriteNanos)
	}
}

// --- Determinism ---

func TestSortStreamDeterministic(t *testing.T) {
	keys := dataset.Uniform(30000, 5)
	for _, cfg := range []Config{
		testConfig(t, 2000, 4),
		chunkConfig(t, 2000, 4),
	} {
		var out1, out2 bytes.Buffer
		s1, err := SortStream(bytes.NewReader(encode(keys)), &out1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := SortStream(bytes.NewReader(encode(keys)), &out2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("%s: re-running SortStream changed the output bytes", cfg.Formation)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: re-running SortStream changed Stats:\n%+v\n%+v", cfg.Formation, s1, s2)
		}
	}
}

// --- Refine-at-merge ---

func TestRefineAtMerge(t *testing.T) {
	keys := dataset.Uniform(25000, 17)
	cfg := testConfig(t, 3000, 4)
	cfg.RefineAtMerge = true
	got, stats := runSort(t, keys, cfg)
	checkSorted(t, keys, got)
	if !stats.RefineAtMerge {
		t.Error("stats does not record refine-at-merge")
	}
	if stats.RemTildeTotal == 0 {
		t.Error("expected nonzero remainders")
	}
	// Even a single run needs a merge pass (its two part files).
	single := testConfig(t, 100000, 4)
	single.RefineAtMerge = true
	got, stats = runSort(t, keys, single)
	checkSorted(t, keys, got)
	if stats.Runs != 1 || stats.MergePasses != 1 {
		t.Errorf("single parts run: runs=%d passes=%d, want 1/1", stats.Runs, stats.MergePasses)
	}
}

func TestRefineAtMergeCheaperFormation(t *testing.T) {
	// Deferring refine step 3 must save formation write latency (the
	// 2n+Rem~ merge writes move into the external merge).
	keys := dataset.Uniform(20000, 19)
	base := testConfig(t, 4000, 4)
	_, plain := runSort(t, keys, base)
	ram := base
	ram.RefineAtMerge = true
	_, deferred := runSort(t, keys, ram)
	if deferred.HybridWriteNanos >= plain.HybridWriteNanos {
		t.Errorf("refine-at-merge formation %.0fns not cheaper than plain %.0fns",
			deferred.HybridWriteNanos, plain.HybridWriteNanos)
	}
}

func TestFragmentCollapseAvoidsExtraPass(t *testing.T) {
	// Refine-at-merge spills two part files per run, so R runs expose 2R
	// fragments; with R <= fanIn < 2R the old allocator paid a full extra
	// merge pass (MergeWrites = 2×Records). The fragment-aware allocator
	// pre-folds only the smallest fragments — mostly the tiny REM files —
	// so the merge finishes in one pass plus the collapsed volume.
	keys := dataset.Uniform(25000, 17)
	cfg := testConfig(t, 3000, 6) // ~5 replacement runs: 5 <= 6 < 10 parts
	cfg.RefineAtMerge = true
	got, stats := runSort(t, keys, cfg)
	checkSorted(t, keys, got)
	if stats.Runs > cfg.FanIn || 2*stats.Runs <= cfg.FanIn {
		t.Fatalf("runs=%d does not exercise runs <= fanIn=%d < 2×runs", stats.Runs, cfg.FanIn)
	}
	if stats.FragmentCollapses == 0 || stats.CollapsedRecords == 0 {
		t.Fatalf("collapses=%d collapsed=%d, want both nonzero",
			stats.FragmentCollapses, stats.CollapsedRecords)
	}
	if stats.MergePasses != 1 {
		t.Errorf("MergePasses = %d, want 1 after fragment collapse", stats.MergePasses)
	}
	// Before/after: the old two-full-pass cost is 2×Records; the collapse
	// path charges passes×Records + CollapsedRecords, which must be a
	// strict improvement (REM fragments are far smaller than full runs).
	oldCost := 2 * stats.Records
	newCost := int64(stats.MergePasses)*stats.Records + stats.CollapsedRecords
	if stats.MergeWrites != newCost {
		t.Errorf("MergeWrites = %d, want passes×records + collapsed = %d",
			stats.MergeWrites, newCost)
	}
	if newCost >= oldCost {
		t.Errorf("collapse cost %d not cheaper than extra full pass %d", newCost, oldCost)
	}
}

func TestFragmentCollapseOnlyInRefineAtMerge(t *testing.T) {
	// Whole-run merges keep the exact passes×records identity: the
	// collapse path must never trigger for plain (non-parts) spills even
	// when runs exceed the fan-in.
	keys := dataset.Uniform(20000, 29)
	_, stats := runSort(t, keys, chunkConfig(t, 1000, 2)) // 20 runs, fan-in 2
	if stats.FragmentCollapses != 0 || stats.CollapsedRecords != 0 {
		t.Errorf("plain merge collapsed fragments: collapses=%d collapsed=%d",
			stats.FragmentCollapses, stats.CollapsedRecords)
	}
	if stats.MergeWrites != int64(stats.MergePasses)*stats.Records {
		t.Errorf("MergeWrites = %d, want %d", stats.MergeWrites,
			int64(stats.MergePasses)*stats.Records)
	}
}

// --- Precise formation ---

func TestPreciseFormation(t *testing.T) {
	keys := dataset.Uniform(15000, 23)
	cfg := testConfig(t, 2000, 4)
	cfg.Precise = true
	got, stats := runSort(t, keys, cfg)
	checkSorted(t, keys, got)
	if stats.Hybrid {
		t.Error("stats claims hybrid for precise formation")
	}
	if stats.RemTildeTotal != 0 {
		t.Errorf("precise formation reported Rem~ = %d", stats.RemTildeTotal)
	}
	if stats.HybridWriteNanos <= 0 {
		t.Error("precise formation charged no writes")
	}
}

// --- Merge accounting ---

func TestMergeWritesOnePreciseWritePerRecordPerPass(t *testing.T) {
	keys := dataset.Uniform(20000, 29)
	for _, cfg := range []Config{
		chunkConfig(t, 1000, 2), // 20 runs, multi-pass
		chunkConfig(t, 4000, 16),
		testConfig(t, 3000, 4),
	} {
		_, stats := runSort(t, keys, cfg)
		want := int64(stats.MergePasses) * stats.Records
		if stats.MergeWrites != want {
			t.Errorf("%s runs=%d passes=%d: MergeWrites = %d, want passes×records = %d",
				cfg.Formation, stats.Runs, stats.MergePasses, stats.MergeWrites, want)
		}
		if stats.MergePasses > 0 && stats.MergeWriteNanos <= 0 {
			t.Error("merge writes charged no latency")
		}
	}
}

// --- Disk lifecycle ---

func TestDiskHighWaterBounded(t *testing.T) {
	// Inputs are unlinked as the merge exhausts them, so the live spill
	// footprint must stay well below the 2× the old
	// keep-until-final-RemoveAll lifecycle produced, even across a
	// multi-pass merge.
	keys := dataset.Uniform(60000, 31)
	cfg := chunkConfig(t, 2000, 2) // 30 runs, ~5 passes at fan-in 2
	_, stats := runSort(t, keys, cfg)
	inputBytes := int64(4 * len(keys))
	if stats.DiskHighWater >= 2*inputBytes {
		t.Errorf("DiskHighWater = %d, not below 2×input %d", stats.DiskHighWater, 2*inputBytes)
	}
	if stats.DiskHighWater > inputBytes+inputBytes/2 {
		t.Errorf("DiskHighWater = %d > 1.5×input %d: inputs not reclaimed during merge",
			stats.DiskHighWater, inputBytes)
	}
	if stats.DiskBytesWritten < inputBytes {
		t.Errorf("DiskBytesWritten = %d < input %d", stats.DiskBytesWritten, inputBytes)
	}
}

func TestDiskQuota(t *testing.T) {
	keys := dataset.Uniform(20000, 37)
	cfg := chunkConfig(t, 1000, 2)
	cfg.MaxDiskBytes = 4 * 20000 / 2 // half the input can never fit
	var out bytes.Buffer
	_, err := SortStream(bytes.NewReader(encode(keys)), &out, cfg)
	if !errors.Is(err, ErrDiskQuota) {
		t.Fatalf("err = %v, want ErrDiskQuota", err)
	}
	// A generous quota must not trip.
	cfg.MaxDiskBytes = 4 * 20000 * 2
	out.Reset()
	if _, err := SortStream(bytes.NewReader(encode(keys)), &out, cfg); err != nil {
		t.Fatalf("generous quota tripped: %v", err)
	}
}

// --- Failure paths ---

type failingWriter struct {
	after int
	n     int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.after {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestOutputWriteError(t *testing.T) {
	keys := dataset.Uniform(20000, 41)
	for _, after := range []int{0, 1000, 40000} {
		_, err := SortStream(bytes.NewReader(encode(keys)), &failingWriter{after: after}, testConfig(t, 3000, 4))
		if err == nil {
			t.Fatalf("write error after %d bytes not surfaced", after)
		}
	}
}

func TestUnsortedRunDetected(t *testing.T) {
	// A run file that yields a decreasing key is corruption; the merge
	// must refuse it rather than emit unsorted output.
	dir := t.TempDir()
	st := &state{cfg: Config{Block: 8}, dir: dir}
	bad, err := writeRunFile(dir+"/bad.run", []uint32{5, 3, 9}, &st.disk)
	if err != nil {
		t.Fatal(err)
	}
	good, err := writeRunFile(dir+"/good.run", []uint32{1, 2, 3}, &st.disk)
	if err != nil {
		t.Fatal(err)
	}
	st.merge = newMergeAccountant(8)
	var out bytes.Buffer
	if _, err := st.mergeGroup([]runFile{bad, good}, &out, false, 1); err == nil {
		t.Fatal("unsorted run merged without error")
	}
}

func TestRunRecordCountMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	st := &state{cfg: Config{Block: 8}, dir: dir}
	rf, err := writeRunFile(dir+"/short.run", []uint32{1, 2, 3}, &st.disk)
	if err != nil {
		t.Fatal(err)
	}
	rf.records = 5 // claim more than the file holds
	st.merge = newMergeAccountant(8)
	var out bytes.Buffer
	if _, err := st.mergeGroup([]runFile{rf}, &out, false, 1); err == nil {
		t.Fatal("record-count mismatch not detected")
	}
}

// --- Verifier hooks ---

type countingVerifier struct {
	hybrid, parts, precise int
	fail                   bool
}

func (v *countingVerifier) VerifyHybridRun(input []uint32, res core.Result) error {
	v.hybrid++
	if v.fail {
		return errors.New("forced failure")
	}
	return nil
}
func (v *countingVerifier) VerifyPartsRun(input []uint32, parts core.Parts) error {
	v.parts++
	if v.fail {
		return errors.New("forced failure")
	}
	return nil
}
func (v *countingVerifier) VerifyPreciseRun(input, output []uint32) error {
	v.precise++
	if v.fail {
		return errors.New("forced failure")
	}
	return nil
}

func TestVerifierSeesEveryRun(t *testing.T) {
	keys := dataset.Uniform(20000, 43)
	v := &countingVerifier{}
	cfg := testConfig(t, 2000, 4)
	cfg.Verifier = v
	_, stats := runSort(t, keys, cfg)
	if v.hybrid != stats.Runs || v.parts != 0 || v.precise != 0 {
		t.Errorf("verifier calls hybrid=%d parts=%d precise=%d for %d runs", v.hybrid, v.parts, v.precise, stats.Runs)
	}

	v = &countingVerifier{}
	cfg = testConfig(t, 2000, 4)
	cfg.RefineAtMerge = true
	cfg.Verifier = v
	_, stats = runSort(t, keys, cfg)
	if v.parts != stats.Runs || v.hybrid != 0 {
		t.Errorf("parts verifier calls = %d for %d runs", v.parts, stats.Runs)
	}

	v = &countingVerifier{}
	cfg = testConfig(t, 2000, 4)
	cfg.Precise = true
	cfg.Verifier = v
	_, stats = runSort(t, keys, cfg)
	if v.precise != stats.Runs {
		t.Errorf("precise verifier calls = %d for %d runs", v.precise, stats.Runs)
	}
}

func TestVerifierFailureAborts(t *testing.T) {
	keys := dataset.Uniform(5000, 47)
	cfg := testConfig(t, 1000, 4)
	cfg.Verifier = &countingVerifier{fail: true}
	var out bytes.Buffer
	if _, err := SortStream(bytes.NewReader(encode(keys)), &out, cfg); err == nil {
		t.Fatal("verifier failure did not abort the sort")
	}
}

// --- Progress ---

func TestProgressCallback(t *testing.T) {
	keys := dataset.Uniform(30000, 53)
	cfg := testConfig(t, 2000, 4)
	var phases []string
	var lastRecords int64
	cfg.OnProgress = func(p Progress) {
		phases = append(phases, p.Phase)
		lastRecords = p.Records
	}
	_, stats := runSort(t, keys, cfg)
	var sawForm, sawMerge bool
	for _, ph := range phases {
		switch ph {
		case "form":
			sawForm = true
		case "merge":
			sawMerge = true
		}
	}
	if !sawForm || !sawMerge {
		t.Errorf("progress phases %v missing form/merge", phases)
	}
	if lastRecords != stats.Records {
		t.Errorf("final progress records %d != %d", lastRecords, stats.Records)
	}
}

// --- AutoPlan ---

func TestAutoPlanChoosesGeometry(t *testing.T) {
	keys := dataset.Uniform(60000, 59)
	cfg := testConfig(t, 4000, 8)
	cfg.AutoPlan = true
	cfg.TotalRecords = int64(len(keys))
	got, stats := runSort(t, keys, cfg)
	checkSorted(t, keys, got)
	if stats.Plan == nil {
		t.Fatal("AutoPlan left Stats.Plan nil")
	}
	e := stats.Plan
	if stats.RunSize != e.RunSize || stats.FanIn != e.FanIn ||
		stats.Hybrid != e.UseHybrid || stats.RefineAtMerge != e.RefineAtMerge {
		t.Errorf("executed geometry %+v diverges from plan %+v", stats, e)
	}
	if e.RunSize > 4000 {
		t.Errorf("planner RunSize %d exceeds budget", e.RunSize)
	}
	// At the MLC sweet spot the verdict should be hybrid.
	if !e.UseHybrid {
		t.Errorf("expected hybrid verdict at T=0.07, got %+v", e)
	}
}

func TestAutoPlanDeterministic(t *testing.T) {
	keys := dataset.Uniform(40000, 61)
	cfg := testConfig(t, 3000, 8)
	cfg.AutoPlan = true
	cfg.TotalRecords = int64(len(keys))
	var out1, out2 bytes.Buffer
	s1, err := SortStream(bytes.NewReader(encode(keys)), &out1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SortStream(bytes.NewReader(encode(keys)), &out2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("AutoPlan sort not deterministic across reruns")
	}
}

func ExampleSortStream() {
	keys := []uint32{5, 3, 1, 4, 2}
	var out bytes.Buffer
	stats, err := SortStream(bytes.NewReader(encode(keys)), &out, Config{
		Core:    core.Config{Algorithm: sorts.MSD{Bits: 6}, NewSpace: mlcSpace(0.055), Seed: 1},
		RunSize: 4,
		FanIn:   2,
	})
	if err != nil {
		panic(err)
	}
	sorted := make([]uint32, stats.Records)
	for i := range sorted {
		sorted[i] = binary.LittleEndian.Uint32(out.Bytes()[i*4:])
	}
	fmt.Println(stats.Records, stats.Runs, sorted)
	// Output: 5 1 [1 2 3 4 5]
}
