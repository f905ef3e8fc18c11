package verify

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

func mlcIdentities() memmodel.Identities {
	return memmodel.MustGet(memmodel.PCMMLC).Identities(memmodel.Point{})
}

func encodeStream(keys []uint32) []byte {
	out := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(out[i*4:], k)
	}
	return out
}

func extsortConfig(t *testing.T) extsort.Config {
	return extsort.Config{
		Core:     core.Config{Algorithm: sorts.MSD{Bits: 6}, NewSpace: mlcSpace(0.07), Seed: 11},
		RunSize:  2000,
		FanIn:    4,
		TempDir:  t.TempDir(),
		Verifier: Auditor{ID: mlcIdentities()},
	}
}

// TestAuditorEndToEnd drives every formation mode through the full audit
// chain a streaming job uses: per-run Auditor, StreamChecker on the
// output, CheckExtsortStats on the totals.
func TestAuditorEndToEnd(t *testing.T) {
	keys := dataset.Uniform(15000, 3)
	for _, tc := range []struct {
		name string
		mut  func(*extsort.Config)
	}{
		{"hybrid", func(*extsort.Config) {}},
		{"refine-at-merge", func(c *extsort.Config) { c.RefineAtMerge = true }},
		{"precise", func(c *extsort.Config) { c.Precise = true }},
		{"chunk", func(c *extsort.Config) { c.Formation = extsort.FormationChunk }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := extsortConfig(t)
			tc.mut(&cfg)
			var out bytes.Buffer
			sc := NewStreamChecker(&out)
			stats, err := extsort.SortStream(bytes.NewReader(encodeStream(keys)), sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Finish(stats.Records); err != nil {
				t.Fatal(err)
			}
			if rep := CheckExtsortStats(stats); !rep.OK() {
				t.Fatalf("stats audit failed: %v", rep.Violations)
			}
			if rep := CheckOutput(keys, decodeStream(out.Bytes())); !rep.OK() {
				t.Fatalf("output audit failed: %v", rep.Violations)
			}
		})
	}
}

func decodeStream(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

func cleanParts(t *testing.T) ([]uint32, core.Parts) {
	t.Helper()
	keys := dataset.Uniform(4000, 7)
	parts, err := core.RunParts(keys, core.Config{Algorithm: sorts.MSD{Bits: 6}, NewSpace: mlcSpace(0.07), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return keys, parts
}

func TestCheckRunPartsClean(t *testing.T) {
	keys, parts := cleanParts(t)
	rep := CheckRunParts(keys, parts, mlcIdentities())
	if !rep.OK() {
		t.Fatalf("clean parts failed audit: %v", rep.Violations)
	}
	if rep.Checked < 10 {
		t.Errorf("only %d checks ran", rep.Checked)
	}
}

// TestCheckRunPartsMutations plants one defect per case and demands the
// audit catch it with the right violation code.
func TestCheckRunPartsMutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*core.Parts)
		code string
	}{
		{"unsorted-lis", func(p *core.Parts) {
			if len(p.LisKeys) > 1 {
				p.LisKeys[0], p.LisKeys[len(p.LisKeys)-1] = p.LisKeys[len(p.LisKeys)-1]+1, p.LisKeys[0]
			}
		}, "parts-unsorted"},
		{"unsorted-rem", func(p *core.Parts) {
			if len(p.RemKeys) > 1 {
				p.RemKeys[0] = p.RemKeys[len(p.RemKeys)-1] + 1
			}
		}, "parts-unsorted"},
		{"dropped-record", func(p *core.Parts) {
			p.LisKeys = p.LisKeys[:len(p.LisKeys)-1]
			p.LisIDs = p.LisIDs[:len(p.LisIDs)-1]
		}, "parts-split"},
		{"rem-count-lie", func(p *core.Parts) { p.Report.RemTilde++ }, "parts-split"},
		{"duplicated-id", func(p *core.Parts) {
			// Duplicate the record wholesale so only the permutation
			// check can object.
			p.LisIDs[0] = p.LisIDs[1]
			p.LisKeys[0] = p.LisKeys[1]
		}, "id-not-permutation"},
		{"swapped-key", func(p *core.Parts) { p.RemIDs[0], p.RemIDs[len(p.RemIDs)-1] = p.RemIDs[len(p.RemIDs)-1], p.RemIDs[0] }, "id-key-mismatch"},
		{"merge-traffic", func(p *core.Parts) { p.Report.RefineMerge.Precise.Writes = 1 }, "parts-merge-not-empty"},
		{"find-writes", func(p *core.Parts) { p.Report.RefineFind.Precise.Writes++ }, "find-writes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys, parts := cleanParts(t)
			tc.mut(&parts)
			rep := CheckRunParts(keys, parts, mlcIdentities())
			if rep.OK() {
				t.Fatalf("mutation %s not detected", tc.name)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Code == tc.code {
					found = true
				}
			}
			if !found {
				t.Errorf("mutation %s: want code %q, got %v", tc.name, tc.code, rep.Violations)
			}
		})
	}
}

func TestStreamCheckerFragmentedWrites(t *testing.T) {
	data := encodeStream([]uint32{1, 5, 5, 9, 100})
	var out bytes.Buffer
	sc := NewStreamChecker(&out)
	// Deliver in pathological chunk sizes that split words.
	for i := 0; i < len(data); {
		n := 3
		if i+n > len(data) {
			n = len(data) - i
		}
		if _, err := sc.Write(data[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := sc.Finish(5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Error("checker altered the forwarded bytes")
	}
}

func TestStreamCheckerCatchesDisorder(t *testing.T) {
	sc := NewStreamChecker(nil)
	if _, err := sc.Write(encodeStream([]uint32{4, 2})); err == nil {
		t.Fatal("decreasing stream accepted")
	}
	// The error is sticky.
	if _, err := sc.Write(encodeStream([]uint32{9})); err == nil {
		t.Fatal("write after violation accepted")
	}
}

func TestStreamCheckerFinish(t *testing.T) {
	sc := NewStreamChecker(nil)
	sc.Write(encodeStream([]uint32{1, 2, 3}))
	if err := sc.Finish(4); err == nil || !strings.Contains(err.Error(), "expected 4") {
		t.Errorf("count mismatch not reported: %v", err)
	}
	sc = NewStreamChecker(nil)
	sc.Write([]byte{1, 2, 3})
	if err := sc.Finish(0); err == nil {
		t.Error("trailing partial word accepted")
	}
	sc = NewStreamChecker(nil)
	if err := sc.Finish(0); err != nil {
		t.Errorf("empty stream rejected: %v", err)
	}
}

func cleanStats(t *testing.T) extsort.Stats {
	t.Helper()
	keys := dataset.Uniform(12000, 9)
	cfg := extsortConfig(t)
	var out bytes.Buffer
	stats, err := extsort.SortStream(bytes.NewReader(encodeStream(keys)), &out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestCheckExtsortStatsMutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*extsort.Stats)
		code string
	}{
		{"records-lie", func(s *extsort.Stats) { s.Records++ }, "extsort-ledger"},
		{"rem-lie", func(s *extsort.Stats) { s.RemTildeTotal-- }, "extsort-ledger"},
		{"nanos-lie", func(s *extsort.Stats) { s.HybridWriteNanos *= 1.5 }, "extsort-ledger"},
		{"dropped-run", func(s *extsort.Stats) { s.PerRun = s.PerRun[1:] }, "extsort-ledger"},
		{"merge-writes-lie", func(s *extsort.Stats) { s.MergeWrites++ }, "merge-accounting"},
		{"merge-nanos-lie", func(s *extsort.Stats) { s.MergeWriteNanos /= 2 }, "merge-accounting"},
		{"high-water-lie", func(s *extsort.Stats) { s.DiskHighWater = s.DiskBytesWritten + 1 }, "disk-ledger"},
		{"hybrid-flag-lie", func(s *extsort.Stats) { s.Hybrid = !s.Hybrid }, "extsort-ledger"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := cleanStats(t)
			tc.mut(&stats)
			rep := CheckExtsortStats(stats)
			if rep.OK() {
				t.Fatalf("mutation %s not detected", tc.name)
			}
			found := false
			for _, v := range rep.Violations {
				if v.Code == tc.code {
					found = true
				}
			}
			if !found {
				t.Errorf("mutation %s: want code %q, got %v", tc.name, tc.code, rep.Violations)
			}
		})
	}
}

func TestAuditorRejectsTamperedPreciseRun(t *testing.T) {
	a := Auditor{}
	in := []uint32{3, 1, 2}
	if err := a.VerifyPreciseRun(in, []uint32{1, 2, 3}); err != nil {
		t.Fatalf("clean precise run rejected: %v", err)
	}
	if err := a.VerifyPreciseRun(in, []uint32{1, 2, 4}); err == nil {
		t.Fatal("tampered precise run accepted")
	}
}
