package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		ok   bool
	}{
		{n: 20, ok: false}, // only the median has ten samples beyond it
		{n: 21, p: 52, ok: true},
		{n: 55, p: 81, ok: true},
		{n: 100, p: 90, ok: true},
		{n: 1000, p: 99, ok: true},
		{n: 5000, p: 99, ok: true},
	} {
		p, _, ok := tailPercentile(tc.n)
		if ok != tc.ok || (ok && p != tc.p) {
			t.Errorf("tailPercentile(%d) = p%d ok=%v, want p%d ok=%v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

// The reported percentile is the highest one with at least ten samples
// beyond it: the next percentile up has fewer than ten.
func TestTailPercentileIsHighestWithTenBeyond(t *testing.T) {
	for n := 21; n <= 2000; n++ {
		p, rank, ok := tailPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if beyond := n - 1 - rank; beyond < tailBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond it", n, p, beyond)
		}
		if p < 99 {
			if beyond := n - 1 - nearestRank(p+1, n); beyond >= tailBeyond {
				t.Fatalf("n=%d: p%d is not the highest; p%d has %d beyond", n, p, p+1, beyond)
			}
		}
	}
}

func TestTailValue(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100 … 1
	}
	v, p, beyond, ok := tail(samples)
	if !ok || v != 90 || p != 90 || beyond != 10 {
		t.Errorf("tail = %v p%d beyond=%d ok=%v, want 90 p90 10 true", v, p, beyond, ok)
	}
	if _, _, _, ok := tail(samples[:20]); ok {
		t.Error("20 samples have no tail above the median")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}
