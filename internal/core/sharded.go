package core

import (
	"errors"
	"fmt"
	"math"
)

// This file extends the (M, B, ω) external planner across machines: a
// cluster coordinator range-partitions the input over S shard sortd
// instances, each runs the single-node approx-refine external sort over
// ~N/S records, and the coordinator streams the S sorted shard outputs
// back in range order, a serial concatenation of one precise write per
// record. Shards sort concurrently, so the predicted wall cost is the
// per-shard critical path plus the partition and that copy; the planner
// picks the S that minimizes it and reports the predicted speedup over
// S = 1.

// ShardConfig parameterizes the multi-node planner on top of an
// ExtConfig describing each shard's local geometry.
type ShardConfig struct {
	// Ext is the single-node model; Ext.N is the TOTAL record count, and
	// Ext.MemBudget/Block/Omega describe one shard (nodes are assumed
	// homogeneous, which CI's localhost matrix makes literally true).
	Ext ExtConfig
	// MaxShards caps the candidate shard counts (the number of live
	// sortd nodes the coordinator can reach). At least 1.
	MaxShards int
}

// shardJobOverhead is the predicted fixed cost of one shard job in
// precise-write units (submission round trips, spool setup, table
// warm-up relay), priced at one I/O block. It is charged S times when
// S > 1; a single-node sort bypasses the coordinator.
const shardJobOverhead = float64(ExtBlockDefault)

// check validates s and applies its defaults, the per-shard ExtConfig's
// included.
func (s ShardConfig) check() (Geometry, error) {
	if s.MaxShards < 1 {
		return nil, fmt.Errorf("core: ShardConfig.MaxShards = %d; need at least 1", s.MaxShards)
	}
	if s.Ext.N <= 0 {
		return nil, errors.New("core: ShardConfig.Ext.N must be positive")
	}
	var err error
	if s.Ext, err = s.Ext.checked(); err != nil {
		return nil, err
	}
	return s, nil
}

// bound offers no pruning, as for ExtConfig.
func (ShardConfig) bound(AlphaFunc, int, float64) float64 { return math.Inf(-1) }

// ShardedPlan is the multi-node verdict: how many shards to fan out
// over and the predicted write budgets that selected it. Write figures
// are equivalent precise word-writes.
type ShardedPlan struct {
	// Shards is the chosen fan-out (1 means "stay single-node").
	Shards int
	// ShardRecords is the per-shard input ceiling, ceil(N/Shards).
	ShardRecords int64

	// PerShard is the single-node external plan at ShardRecords — the
	// geometry every shard job should be submitted with.
	PerShard *ExternalPlan

	// ShardWrites is one shard's predicted total (the parallel critical
	// path, shards being concurrent and balanced); CrossWrites is the
	// coordinator's serial concatenation of the shard outputs in range
	// order, one precise write per record (N when Shards > 1, else 0).
	// PartitionWrites is the coordinator's range-partition pass — every
	// record written once into a shard spool — plus the per-job
	// overhead; both are zero at S = 1, where the sort runs directly.
	ShardWrites     float64
	CrossWrites     float64
	PartitionWrites float64
	// CriticalPath = ShardWrites + CrossWrites + PartitionWrites, the
	// predicted wall cost in precise-write units; SingleNode is the same
	// figure at S = 1, so Speedup = SingleNode / CriticalPath.
	CriticalPath float64
	SingleNode   float64
	Speedup      float64
}

// price plans a multi-node sort of cfg.Ext.N records from one
// candidate's pilot and returns its predicted critical path. For each
// candidate S it prices the external geometry at the per-shard size
// ceil(N/S) — smaller shards may flip the run-size or refine-at-merge
// verdicts, not just scale them — prices the concatenation and the
// range partition at N writes each, and keeps the S minimizing the
// critical path.
// The returned Plan carries both verdicts: External is the per-shard
// geometry, Sharded the fan-out around it.
func (cfg ShardConfig) price(pi pilot, n int) (Plan, float64) {
	var (
		bestPlan Plan
		best     ShardedPlan
		bestCost = math.Inf(1)
		single   = math.Inf(1)
	)
	for s := 1; s <= cfg.MaxShards; s++ {
		ext := cfg.Ext
		ext.N = (cfg.Ext.N + int64(s) - 1) / int64(s)
		if s > 1 && ext.N <= int64(ext.MemBudget) {
			// A shard this small fits one in-memory run; the write model
			// would still parallelize formation, but an input a single
			// node holds in memory gains nothing worth the coordination,
			// so fan-out candidates stop at out-of-core shard sizes.
			break
		}
		p, _ := ext.price(pi, n)
		per := p.External

		cross, partition := 0.0, 0.0
		if s > 1 {
			cross = float64(cfg.Ext.N)
			partition = float64(cfg.Ext.N) + float64(s)*shardJobOverhead
		}
		crit := per.TotalWrites + cross + partition
		if s == 1 {
			single = crit
		}
		if crit < bestCost {
			bestCost = crit
			bestPlan = p
			best = ShardedPlan{
				Shards:          s,
				ShardRecords:    ext.N,
				PerShard:        per,
				ShardWrites:     per.TotalWrites,
				CrossWrites:     cross,
				PartitionWrites: partition,
				CriticalPath:    crit,
			}
		}
	}
	best.SingleNode = single
	best.Speedup = single / bestCost
	if math.IsInf(best.Speedup, 0) || math.IsNaN(best.Speedup) {
		best.Speedup = 1
	}
	bestPlan.Sharded = &best
	return bestPlan, bestCost
}
