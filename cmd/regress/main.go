// Command regress replays a pinned-seed subset of the paper's experiment
// grid — Figures 2, 4, 9–13 plus a handful of sortd API jobs served over
// an in-process HTTP server — and gates every produced metric against the
// committed goldens in results/golden/regress.json.
//
// The grid is deterministic by construction (coordinate-keyed rng.Split
// seeds, shared MLC table cache), so two runs at the same seed produce
// byte-identical reports and the gate has zero flake budget: counts
// compare exactly, simulated nanos/energy under a tiny relative epsilon
// (declared per metric by this runner, never by the golden file).
//
// Usage:
//
//	regress                  # compare against goldens, exit 1 on drift
//	regress -update          # regenerate the golden file
//	regress -out report.json # also write the machine-readable report
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"approxsort/internal/verify"
)

func main() {
	var (
		update  = flag.Bool("update", false, "rewrite the golden file from this run instead of gating")
		golden  = flag.String("golden", "results/golden/regress.json", "golden metrics file")
		out     = flag.String("out", "", "write the gate report JSON here ('-' or empty = stdout)")
		seed    = flag.Uint64("seed", defaultSeed, "base seed for every grid point")
		workers = flag.Int("workers", 1, "sweep worker count (results are identical for any value)")
	)
	flag.Parse()

	metrics, err := collect(*seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regress: collect:", err)
		os.Exit(1)
	}

	if *update {
		data, err := marshalGolden(*seed, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regress:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*golden, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "regress:", err)
			os.Exit(1)
		}
		fmt.Printf("regress: wrote %d metrics to %s\n", len(metrics), *golden)
		return
	}

	rep, err := gate(*golden, *seed, metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		os.Exit(1)
	}
	data, err := marshalReport(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		os.Exit(1)
	}
	if *out == "" || *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		os.Exit(1)
	}
	if !rep.Pass {
		for _, d := range rep.Drifts {
			fmt.Fprintln(os.Stderr, "regress: DRIFT:", d)
		}
		fmt.Fprintf(os.Stderr, "regress: FAIL: %d of %d metrics drifted (golden %s)\n",
			len(rep.Drifts), len(rep.Metrics), *golden)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "regress: PASS: %d metrics match %s\n", len(rep.Metrics), *golden)
}

// marshalGolden renders the golden file: metrics pre-sorted by name,
// indented, trailing newline — byte-stable for a given grid.
func marshalGolden(seed uint64, metrics []verify.Metric) ([]byte, error) {
	return stableJSON(goldenFile{Seed: seed, Metrics: metrics})
}

// marshalReport renders the gate report identically stably.
func marshalReport(rep *report) ([]byte, error) {
	return stableJSON(rep)
}

func stableJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// post issues one synchronous sortd job on POST /v1/sort+route and
// returns the terminal job record.
func post(ts *httptest.Server, route, body string) (*serverJob, error) {
	resp, err := http.Post(ts.URL+"/v1/sort"+route+"?wait=1", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("POST /v1/sort%s: HTTP %d: %s", route, resp.StatusCode, e.Error)
	}
	var job serverJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return nil, err
	}
	return &job, nil
}
