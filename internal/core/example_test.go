package core_test

import (
	"fmt"

	"approxsort/internal/core"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// The minimal end-to-end use: sort keys with the approx-refine mechanism
// and read the precision guarantee off the report.
func ExampleRun() {
	keys := []uint32{168, 528, 1, 96, 33, 35, 928, 6} // the paper's Figure 8 input

	// The approximate space is MLC PCM at target half-width T = 0.055.
	b := memmodel.MustGet(memmodel.PCMMLC)
	pt, err := b.Normalize(memmodel.MLC(0.055))
	if err != nil {
		panic(err)
	}
	res, err := core.Run(keys, core.Config{
		Algorithm: sorts.Quicksort{},
		NewSpace:  func(s uint64) core.Space { return b.NewApprox(pt, s) },
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("keys:", res.Keys)
	fmt.Println("ids: ", res.IDs)
	fmt.Println("sorted:", res.Report.Sorted)
	// Output:
	// keys: [1 6 33 35 96 168 528 928]
	// ids:  [2 7 4 5 3 0 1 6]
	// sorted: true
}

// The Section 4.3 cost model predicts when the hybrid execution wins.
func ExampleCostModel() {
	m := core.CostModel{P: 0.67, Alpha: core.AlphaRadix(3)}
	fmt.Printf("WR(16M, Rem~=2%%) = %.3f\n", m.WriteReduction(16_000_000, 320_000))
	fmt.Println("use hybrid:", m.UseHybrid(16_000_000, 320_000))
	// Output:
	// WR(16M, Rem~=2%) = 0.093
	// use hybrid: true
}
