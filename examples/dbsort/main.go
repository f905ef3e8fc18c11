// dbsort: a database-style ORDER BY over <Key, RecordID> pairs — the
// workload the paper's design centers on (Section 4.1): record IDs are the
// payload that lets query processing continue from the sorted result, so
// they must stay attached to their keys with bit-exact precision.
//
// The example builds a toy "orders" table, sorts it by order total through
// the approx-refine engine, uses the returned ID permutation to fetch the
// top rows, and cross-checks the result against a plain precise sort.
//
// Run with:
//
//	go run ./examples/dbsort
package main

import (
	"fmt"
	"log"
	"sort"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// order is one row of the toy table. Only the total participates in the
// sort; the rest rides along via the record ID, exactly like the paper's
// <Key, ID> layout.
type order struct {
	customer string
	items    int
	total    uint32 // cents
}

func main() {
	log.SetFlags(0)
	const n = 400_000

	// Synthesize the table: Zipf-skewed totals, like real sales data.
	totals := dataset.Zipf(n, 5000, 1.1, 7)
	table := make([]order, n)
	for i := range table {
		table[i] = order{
			customer: fmt.Sprintf("customer-%05d", i%50000),
			items:    1 + i%7,
			total:    totals[i],
		}
	}

	// ORDER BY total, offloaded to approximate memory.
	keys := make([]uint32, n)
	for i, row := range table {
		keys[i] = row.total
	}
	// The space is MLC PCM at the Figure 9 sweet spot, T = 0.055.
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.MLC(0.055))
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(keys, core.Config{
		Algorithm: sorts.LSD{Bits: 6},
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ORDER BY total over %d rows: write reduction %.2f%% (Rem~=%d)\n\n",
		n, 100*res.Report.WriteReduction(), res.Report.RemTilde)

	// The ID permutation recovers whole rows from the sorted keys.
	fmt.Println("top 5 orders by total:")
	for i := 0; i < 5; i++ {
		row := table[res.IDs[n-1-i]]
		fmt.Printf("  %s  items=%d  total=$%d.%02d\n",
			row.customer, row.items, row.total/100, row.total%100)
	}

	// Cross-check against the host language's own sort.
	want := append([]uint32(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if res.Keys[i] != want[i] {
			log.Fatalf("precision violated at row %d", i)
		}
		if table[res.IDs[i]].total != res.Keys[i] {
			log.Fatalf("record ID detached from its row at %d", i)
		}
	}
	fmt.Println("\ncross-check vs precise sort: identical ✔")
}
