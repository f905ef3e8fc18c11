package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultishSmall(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "5000", "-alg", "quicksort"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"approx-refine: Quicksort",
		"approx preparation",
		"refine 3: merge",
		"fully sorted: true",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunWithPlanAndExactLIS(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "20000", "-alg", "msd", "-bits", "3", "-plan", "-exactlis"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "planner (pilot") || !strings.Contains(s, "verdict:") {
		t.Errorf("planner output missing:\n%s", s)
	}
	if !strings.Contains(s, "fully sorted: true") {
		t.Error("exact-LIS run not sorted")
	}
}

func TestRunDistributions(t *testing.T) {
	for _, dist := range []string{"sorted", "reverse", "zipf", "fewdistinct"} {
		var out strings.Builder
		if err := run([]string{"-n", "2000", "-dist", dist, "-alg", "histlsd"}, &out); err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if !strings.Contains(out.String(), "fully sorted: true") {
			t.Errorf("%s: not sorted", dist)
		}
	}
}

func TestRunExternal(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-external", "-n", "50000", "-runsize", "6000", "-fanin", "3",
		"-alg", "msd", "-T", "0.07", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"external approx-refine: 6-bit MSD over 50000 uniform keys",
		"replacement formation",
		"merge:",
		"output verified: sorted stream, 50000 records conserved",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunExternalAutoplanToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sorted.raw")
	var out strings.Builder
	err := run([]string{
		"-external", "-autoplan", "-n", "30000", "-runsize", "4000",
		"-dist", "zipf", "-T", "0.07", "-o", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "planner (M=") {
		t.Errorf("autoplan output missing planner line:\n%s", out.String())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 4*30000 {
		t.Errorf("output file is %d bytes, want %d", fi.Size(), 4*30000)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alg", "bogosort"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-dist", "nope"}, &out); err == nil {
		t.Error("unknown distribution accepted")
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Error("zero -n accepted")
	}
	// -T is range-checked on both paths; NaN fails every comparison, so
	// a range test written as "out of range" would let it through.
	for _, tv := range []string{"NaN", "0", "0.2"} {
		for _, path := range [][]string{nil, {"-external"}} {
			args := append([]string{"-n", "2000", "-T", tv}, path...)
			if err := run(args, &out); err == nil {
				t.Errorf("%v accepted", args)
			}
		}
	}
}
