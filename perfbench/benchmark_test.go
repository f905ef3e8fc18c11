package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the checkout root declares the metrics this program
// prints; the two lists must name the same metrics with the same units,
// in the same order.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []entry
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the program %s/%s", c.name, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// A simulated value that changes between runs of one build and seed is
// flagged; a new value is recorded, and other seeds keep their own ledger.
func TestLedgerFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	bin := dir + "/sortd"
	if err := os.WriteFile(bin, []byte("build"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{w: workloads[0], seed: 5, sortd: bin, out: dir}
	for i, tc := range []struct {
		sim   map[string]float64
		drift int
	}{
		{map[string]float64{"a": 1}, 0},
		{map[string]float64{"a": 1, "b": 2}, 0},
		{map[string]float64{"a": 1.0000001, "b": 2}, 1},
		{map[string]float64{"a": 1, "b": 3}, 1},
	} {
		drift, err := checkLedger(cfg, tc.sim)
		if err != nil {
			t.Fatal(err)
		}
		if drift != tc.drift {
			t.Errorf("call %d: drift %d, want %d", i, drift, tc.drift)
		}
	}
	cfg.seed = 6
	if drift, err := checkLedger(cfg, map[string]float64{"a": 9}); err != nil || drift != 0 {
		t.Errorf("another seed: drift %d, err %v", drift, err)
	}
}
