// groupby: sort-based aggregation on approximate memory — the paper's
// named future-work direction ("other database operations (such as
// aggregations) on approximate hardware") taken the conservative way: the
// approximate hardware accelerates the ORDER BY, the grouping pass stays
// precise, so GROUP BY results are exact.
//
// The example aggregates a skewed sales table by product ID and
// cross-checks the result against a plain hash aggregation.
//
// Run with:
//
//	go run ./examples/groupby
package main

import (
	"fmt"
	"log"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// group is one aggregation row: a product, its sale count and revenue.
type group struct {
	key   uint32
	count int
	sum   int64 // cents
}

func main() {
	log.SetFlags(0)
	const n = 300_000

	// Synthesize sales: Zipf-skewed product IDs, per-sale amounts.
	products := dataset.Zipf(n, 2000, 1.3, 13)
	amounts := make([]int64, n)
	for i := range amounts {
		amounts[i] = int64(100 + (i*37)%900) // cents
	}

	// ORDER BY product on MLC PCM at the Figure 9 sweet spot, T = 0.055.
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.MLC(0.055))
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(products, core.Config{
		Algorithm: sorts.LSD{Bits: 6},
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      13,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One precise pass over the sorted run: each group is a run of equal
	// keys, and its amounts ride along through the record IDs.
	var groups []group
	for i := 0; i < n; {
		g := group{key: res.Keys[i]}
		for ; i < n && res.Keys[i] == g.key; i++ {
			g.count++
			g.sum += amounts[res.IDs[i]]
		}
		groups = append(groups, g)
	}

	fmt.Printf("GROUP BY product over %d sales: %d groups, write reduction %.2f%%\n\n",
		n, len(groups), 100*res.Report.WriteReduction())

	// Show the three best sellers by count.
	best := groups[0]
	var second, third group
	for _, g := range groups {
		switch {
		case g.count > best.count:
			third, second, best = second, best, g
		case g.count > second.count:
			third, second = second, g
		case g.count > third.count:
			third = g
		}
	}
	fmt.Println("top products by sale count:")
	for _, g := range []group{best, second, third} {
		fmt.Printf("  product %10d  sales=%6d  revenue=$%d.%02d\n",
			g.key, g.count, g.sum/100, g.sum%100)
	}

	// Cross-check against a hash aggregation in plain Go.
	counts := make(map[uint32]int, len(groups))
	sums := make(map[uint32]int64, len(groups))
	for i, p := range products {
		counts[p]++
		sums[p] += amounts[i]
	}
	if len(counts) != len(groups) {
		log.Fatalf("group count mismatch: %d vs %d", len(groups), len(counts))
	}
	for _, g := range groups {
		if counts[g.key] != g.count || sums[g.key] != g.sum {
			log.Fatalf("aggregation wrong for product %d", g.key)
		}
	}
	fmt.Println("\ncross-check vs hash aggregation: identical ✔")
}
