package core

import (
	"testing"

	"approxsort/internal/dataset"
	"approxsort/internal/sorts"
)

func shardPlan(t *testing.T, cfg ShardConfig) Plan {
	t.Helper()
	sample := dataset.Uniform(8192, 13)
	plan, err := Planner{Config: Config{T: 0.055, Seed: 99}}.Plan(sample, cfg, only(sorts.MSD{Bits: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sharded == nil || plan.External == nil {
		t.Fatalf("sharded plan left a verdict nil: %+v", plan)
	}
	return plan
}

func TestPlanShardedFansOutLargeInput(t *testing.T) {
	// A cross-shard merge costs one extra N-write pass, but splitting
	// 100M records across shards divides the whole per-shard pipeline,
	// so the planner must fan out and predict a real speedup.
	plan := shardPlan(t, ShardConfig{
		Ext:       ExtConfig{N: 100_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true},
		MaxShards: 4,
	})
	s := plan.Sharded
	if s.Shards < 2 {
		t.Fatalf("Shards = %d, want fan-out for 100M records", s.Shards)
	}
	if s.Speedup <= 1 {
		t.Fatalf("Speedup = %g, want > 1", s.Speedup)
	}
	if s.CrossPasses < 1 {
		t.Fatalf("CrossPasses = %d with %d shards", s.CrossPasses, s.Shards)
	}
	want := (int64(100_000_000) + int64(s.Shards) - 1) / int64(s.Shards)
	if s.ShardRecords != want {
		t.Fatalf("ShardRecords = %d, want ceil(N/S) = %d", s.ShardRecords, want)
	}
	if s.PerShard == nil || s.PerShard.N != want {
		t.Fatalf("PerShard plan not at shard size: %+v", s.PerShard)
	}
	if s.CriticalPath != s.ShardWrites+s.CrossWrites+s.PartitionWrites {
		t.Fatalf("CriticalPath %g != Shard %g + Cross %g + Partition %g",
			s.CriticalPath, s.ShardWrites, s.CrossWrites, s.PartitionWrites)
	}
	if s.PartitionWrites < float64(100_000_000) {
		t.Fatalf("PartitionWrites = %g, want at least one write per record", s.PartitionWrites)
	}
	if s.CriticalPath >= s.SingleNode {
		t.Fatalf("critical path %g not below single-node %g", s.CriticalPath, s.SingleNode)
	}
}

func TestPlanShardedSingleShardStaysLocal(t *testing.T) {
	plan := shardPlan(t, ShardConfig{
		Ext:       ExtConfig{N: 10_000_000, MemBudget: 1 << 17, Replacement: true},
		MaxShards: 1,
	})
	s := plan.Sharded
	if s.Shards != 1 || s.CrossPasses != 0 || s.CrossWrites != 0 {
		t.Fatalf("MaxShards=1 plan fanned out: %+v", s)
	}
	if s.Speedup != 1 {
		t.Fatalf("Speedup = %g, want 1 at S=1", s.Speedup)
	}
}

func TestPlanShardedTinyInputDeclinesFanOut(t *testing.T) {
	// When the whole input fits one in-memory run, sharding only adds a
	// cross-merge pass; the planner must keep S = 1.
	plan := shardPlan(t, ShardConfig{
		Ext:       ExtConfig{N: 50_000, MemBudget: 1 << 17, Replacement: true},
		MaxShards: 8,
	})
	if plan.Sharded.Shards != 1 {
		t.Fatalf("Shards = %d for a single-run input, want 1", plan.Sharded.Shards)
	}
}

func TestPlanShardedCrossFanInCap(t *testing.T) {
	plan := shardPlan(t, ShardConfig{
		Ext:        ExtConfig{N: 500_000_000, MemBudget: 1 << 17, Replacement: true},
		MaxShards:  8,
		CrossFanIn: 2,
	})
	s := plan.Sharded
	if s.CrossFanIn != 2 {
		t.Fatalf("CrossFanIn = %d, want cap 2", s.CrossFanIn)
	}
	if s.Shards > 2 && s.CrossPasses < 2 {
		t.Fatalf("CrossPasses = %d for %d shards at fan-in 2", s.CrossPasses, s.Shards)
	}
}

func TestPlanShardedValidation(t *testing.T) {
	pl := Planner{Config: Config{T: 0.055, Seed: 1}}
	msd := only(sorts.MSD{Bits: 6})
	if _, err := pl.Plan(nil, ShardConfig{Ext: ExtConfig{N: 100, MemBudget: 1 << 16}}, msd); err == nil {
		t.Fatal("expected error for MaxShards=0")
	}
	if _, err := pl.Plan(nil, ShardConfig{Ext: ExtConfig{N: 0, MemBudget: 1 << 16}, MaxShards: 2}, msd); err == nil {
		t.Fatal("expected error for N=0")
	}
}

func TestPlanShardedDeterministic(t *testing.T) {
	cfg := ShardConfig{
		Ext:       ExtConfig{N: 40_000_000, MemBudget: 1 << 17, Replacement: true, AllowRefineAtMerge: true},
		MaxShards: 5,
	}
	a := shardPlan(t, cfg)
	b := shardPlan(t, cfg)
	if *a.Sharded.PerShard != *b.Sharded.PerShard {
		t.Fatalf("per-shard plans diverged:\n%+v\n%+v", a.Sharded.PerShard, b.Sharded.PerShard)
	}
	ap, bp := *a.Sharded, *b.Sharded
	ap.PerShard, bp.PerShard = nil, nil
	if ap != bp {
		t.Fatalf("sharded plans diverged:\n%+v\n%+v", ap, bp)
	}
}
