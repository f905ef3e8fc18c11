// Quickstart: the smallest end-to-end use of the approx-refine engine.
//
// It sorts one million uniformly random 32-bit keys on a hybrid
// precise/approximate memory system, prints the write-latency savings,
// and verifies the output is exactly the sorted input — the paper's core
// promise: approximate hardware, precise results.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

func main() {
	log.SetFlags(0)
	const (
		n = 1_000_000
		t = 0.055 // the sweet-spot guard-band setting
	)

	keys := dataset.Uniform(n, 42)

	// The approximate half of the memory is MLC PCM at target half-width t.
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.MLC(t))
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(keys, core.Config{
		Algorithm: sorts.MSD{Bits: 3}, // 3-bit MSD: the paper's best performer
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	r := res.Report
	fmt.Printf("sorted %d keys with %s on approximate memory (T=%.3f)\n", r.N, r.Algorithm, t)
	fmt.Printf("  heuristic remainder Rem~: %d records (%.3f%% of n)\n", r.RemTilde, 100*r.RemTildeRatio())
	fmt.Printf("  total write latency: %.1f ms (precise-only baseline: %.1f ms)\n",
		r.Total().WriteNanos()/1e6, r.Baseline.WriteNanos/1e6)
	fmt.Printf("  write reduction (Eq. 2): %.2f%%\n", 100*r.WriteReduction())

	// The precision check: every output key equals the sorted input.
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i] < res.Keys[i-1] {
			log.Fatalf("output unsorted at %d — the refine stage is broken", i)
		}
	}
	fmt.Println("  output verified: fully sorted, bit-exact keys ✔")
}
