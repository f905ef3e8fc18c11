package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/mlc"
	"approxsort/internal/rng"
	"approxsort/internal/sorts"
)

// StreamAuditor is the coordinator's output verification hook: the
// concatenated shard outputs are written through it, and Finish seals
// the check with the expected record count. internal/verify's
// StreamChecker satisfies it; the indirection keeps verify out of
// cluster's import graph (the same pattern as extsort.Verifier).
type StreamAuditor interface {
	io.Writer
	// Finish returns an error unless exactly records monotone records
	// passed through.
	Finish(records int64) error
}

// Config parameterizes a Coordinator.
type Config struct {
	// Nodes are the shard sortd base URLs. Placement uses a consistent
	// hash ring over them, so the same fleet and PlacementKey always
	// pick the same shards in the same order.
	Nodes []string
	// VNodes is the ring's per-node vnode count (DefaultVirtualNodes
	// when <= 0).
	VNodes int
	// PlacementKey is the ring key jobs are placed under — the tenant
	// identity, so one tenant's sorts land on a stable shard
	// preference list. Empty uses "default".
	PlacementKey string

	// Job carries the sort parameters forwarded to every shard job.
	// Each shard's seed is derived as rng.Split(Job.Seed, "cluster",
	// "shard", i); Job.Seed itself is never used directly.
	Job JobParams

	// MaxShards caps the fan-out below len(Nodes); 0 means every node
	// is a candidate. The (M, B, ω, S) planner picks the actual count.
	MaxShards int
	// MemBudget is the per-shard planner M in records (default 1<<20,
	// or Job.RunSize when set).
	MemBudget int
	// SampleSize is the splitter/pilot reservoir size (default 4096).
	SampleSize int
	// TempDir hosts the input spool and per-shard partitions (os
	// default when empty).
	TempDir string

	// WarmTables shares shard 0's calibrated MLC table with the other
	// shards through the /v1/tables artifact endpoints before
	// submitting, so a cold fleet pays one calibration campaign
	// instead of one per node. Best-effort: a warming failure is
	// recorded in Stats, not fatal (each shard can calibrate locally).
	WarmTables bool

	// HTTP is the shared transport (http.DefaultClient when nil).
	HTTP *http.Client

	// NewAuditor wraps the job output (verify.NewStreamChecker in
	// production). Required: it is the order and count check on the
	// concatenated stream.
	NewAuditor func(w io.Writer) StreamAuditor
	// WrapShard wraps shard i's output stream before it is copied out;
	// the production hook (verify.RangeReader) pins every record to the
	// shard's assigned [lo, hi] range and the stream to expect records,
	// so a shard cannot smuggle keys outside its partition. Required.
	WrapShard func(shard int, lo, hi uint32, expect int64, r io.Reader) io.Reader
}

// ShardStat is one shard's slice of a cluster sort.
type ShardStat struct {
	Node  string `json:"node"`
	JobID string `json:"job_id"`
	// Lo and Hi are the shard's assigned key range, inclusive.
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
	// Records is the partition size the coordinator routed to the
	// shard; the shard's own extsort ledger must agree exactly.
	Records int64 `json:"records"`
	// Verified echoes the shard job's full audit-chain verdict.
	Verified bool `json:"verified"`
	// WriteNanos is the shard's modelled write latency; Runs and
	// MergePasses its external geometry.
	WriteNanos  float64 `json:"write_nanos"`
	Runs        int     `json:"runs"`
	MergePasses int     `json:"merge_passes"`
}

// Stats summarizes one cluster sort.
type Stats struct {
	// Records is the total input size; Shards the per-shard ledger in
	// range order (shard i's Hi == shard i+1's Lo: a boundary value may
	// land on either side, see Partitioner).
	Records int64       `json:"records"`
	Shards  []ShardStat `json:"shards"`
	// Splitters are the sampled range boundaries (len(Shards)-1).
	Splitters []uint32 `json:"splitters,omitempty"`
	// Plan is the coordinator's (M, B, ω, S) verdict.
	Plan *core.Plan `json:"plan,omitempty"`
	// MergeWrites and MergeWriteNanos are the coordinator's final-pass
	// ledger: the shard outputs are concatenated in range order, and
	// that single cross pass is charged one precise write per record
	// (MergeWrites == Records, MergeWriteNanos == Records ×
	// mlc.PreciseWriteNanos), set only after the output audit passes.
	MergeWrites     int64   `json:"merge_writes"`
	MergeWriteNanos float64 `json:"merge_write_nanos"`
	// TableWarmed reports whether the calibration artifact relay ran;
	// TableWarmError carries the (non-fatal) failure when it did not.
	TableWarmed    bool   `json:"table_warmed,omitempty"`
	TableWarmError string `json:"table_warm_error,omitempty"`
	// Verified is true when every shard job passed its own audit chain
	// AND the concatenated stream passed the coordinator's checks.
	Verified bool `json:"verified"`
}

// Coordinator fans a sort across shards. Construct with New.
type Coordinator struct {
	cfg  Config
	ring *Ring
}

// New validates cfg and builds the coordinator.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.MaxShards < 0 {
		return nil, fmt.Errorf("cluster: MaxShards = %d is negative", cfg.MaxShards)
	}
	if cfg.NewAuditor == nil || cfg.WrapShard == nil {
		return nil, errors.New("cluster: NewAuditor and WrapShard are required")
	}
	if cfg.MaxShards == 0 || cfg.MaxShards > len(cfg.Nodes) {
		cfg.MaxShards = len(cfg.Nodes)
	}
	if cfg.MemBudget <= 0 {
		if cfg.Job.RunSize > 0 {
			cfg.MemBudget = cfg.Job.RunSize
		} else {
			cfg.MemBudget = 1 << 20
		}
	}
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 4096
	}
	if cfg.PlacementKey == "" {
		cfg.PlacementKey = "default"
	}
	return &Coordinator{cfg: cfg, ring: ring}, nil
}

// client builds the per-node API client.
func (co *Coordinator) client(node string) *Client {
	return &Client{Node: node, HTTP: co.cfg.HTTP}
}

// Sort reads the little-endian uint32 key stream from src, sorts it
// across the fleet, and writes the sorted stream to out.
//
// The pipeline: spool src while reservoir-sampling → plan the shard
// count → cut splitters and range-partition the spool → place shards on
// the ring → (optionally) relay the calibration table → submit and
// await every shard job concurrently → copy the shard outputs to out in
// range order, through the WrapShard and NewAuditor checks. Range
// partitioning leaves nothing to merge: shard i's keys lie in
// [Lo, Hi] and shard i+1's Lo is shard i's Hi, so the keys-only shard
// streams, concatenated, are the sorted stream. Any shard failure —
// including a node killed mid-job — surfaces as a *ShardError naming
// the node and stage.
func (co *Coordinator) Sort(ctx context.Context, src io.Reader, out io.Writer) (Stats, error) {
	dir, err := os.MkdirTemp(co.cfg.TempDir, "cluster-")
	if err != nil {
		return Stats{}, err
	}
	defer os.RemoveAll(dir)

	// Phase 1: spool + sample. The reservoir sees every key, so the
	// splitters reflect the whole stream, not a prefix.
	spool := filepath.Join(dir, "input.raw")
	rv := dataset.NewReservoir(co.cfg.SampleSize, co.cfg.Job.Seed)
	records, err := spoolAndSample(src, spool, rv)
	if err != nil {
		return Stats{}, err
	}
	if records == 0 {
		return Stats{}, fmt.Errorf("cluster: input has no records")
	}

	// Phase 2: plan S and the per-shard geometry.
	backend, point, t, err := memmodel.Resolve(co.cfg.Job.Backend, co.cfg.Job.Params, co.cfg.Job.T)
	if err != nil {
		return Stats{}, err
	}
	plan, shards, err := co.plan(rv.Keys(), records, backend, point)
	if err != nil {
		return Stats{}, err
	}

	// Phase 3: splitters + partition.
	splitters, err := rv.Splitters(shards)
	if err != nil {
		return Stats{}, err
	}
	part, err := NewPartitioner(splitters)
	if err != nil {
		return Stats{}, err
	}
	counts, err := partitionSpool(spool, dir, part)
	if err != nil {
		return Stats{}, err
	}
	os.Remove(spool) // reclaim before the shards start spooling uploads

	// Phase 4: placement.
	nodes := co.ring.LookupN(co.cfg.PlacementKey, shards)

	stats := Stats{
		Records:   records,
		Splitters: splitters,
		Plan:      &plan,
		Shards:    make([]ShardStat, shards),
	}
	for i := range stats.Shards {
		lo, hi := part.Range(i)
		stats.Shards[i] = ShardStat{Node: nodes[i], Lo: lo, Hi: hi, Records: counts[i]}
	}

	// Phase 5: one calibration campaign for the whole fleet.
	if co.cfg.WarmTables && shards > 1 {
		if err := co.warmTables(ctx, nodes, backend, t); err != nil {
			stats.TableWarmError = err.Error()
		} else {
			stats.TableWarmed = true
		}
	}

	// Phase 6: submit every shard and await completion concurrently.
	if err := co.runShards(ctx, dir, plan, stats.Shards); err != nil {
		return Stats{}, err
	}

	// Phase 7: concatenate the shard outputs through the audit hooks.
	if err := co.concat(ctx, &stats, out); err != nil {
		return Stats{}, err
	}

	stats.Verified = true
	for _, s := range stats.Shards {
		if !s.Verified {
			stats.Verified = false
		}
	}
	return stats, nil
}

// plan runs the sharded planner over the pilot sample and returns the
// chosen shard count. Algorithm "auto" is sorts.StreamCandidates' roster,
// the one every shard's streaming job runs under it.
func (co *Coordinator) plan(sample []uint32, records int64, backend memmodel.Backend, point memmodel.Point) (core.Plan, int, error) {
	job := co.cfg.Job
	cands, err := sorts.Select(job.Algorithm, job.Bits, sorts.StreamCandidates(job.Bits))
	if err != nil {
		return core.Plan{}, 0, err
	}
	planner := core.Planner{Config: core.Config{
		NewSpace: func(sd uint64) core.Space { return backend.NewApprox(point, sd) },
		Seed:     rng.Split(job.Seed, "cluster", "pilot"),
	}}
	plan, err := planner.Plan(sample, core.ShardConfig{
		Ext: core.ExtConfig{
			N:                  records,
			MemBudget:          co.cfg.MemBudget,
			MaxFanIn:           job.FanIn,
			Omega:              memmodel.WriteCostRatio(backend, point),
			Replacement:        job.Formation != extsort.FormationChunk,
			AllowRefineAtMerge: job.RefineAtMerge || job.Mode == "" || job.Mode == "auto",
		},
		MaxShards: co.cfg.MaxShards,
	}, cands)
	if err != nil {
		return core.Plan{}, 0, err
	}
	return plan, plan.Sharded.Shards, nil
}

// spoolAndSample copies the input stream to path while feeding every
// key to the reservoir, returning the record count.
func spoolAndSample(src io.Reader, path string, rv *dataset.Reservoir) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, 1<<16)
	carry := 0
	var records int64
	for {
		n, rerr := src.Read(buf[carry:])
		n += carry
		whole := n &^ 3
		for i := 0; i < whole; i += 4 {
			rv.Add(binary.LittleEndian.Uint32(buf[i:]))
		}
		if _, err := w.Write(buf[:whole]); err != nil {
			return 0, err
		}
		records += int64(whole / 4)
		carry = copy(buf, buf[whole:n])
		if rerr == io.EOF {
			if carry != 0 {
				return 0, fmt.Errorf("cluster: input is not a whole number of uint32 records (%d trailing bytes)", carry)
			}
			if err := w.Flush(); err != nil {
				return 0, err
			}
			return records, f.Close()
		}
		if rerr != nil {
			return 0, rerr
		}
	}
}

// partitionSpool routes the spooled keys into per-shard files
// ("shard-%d.raw" under dir) and returns the per-shard record counts.
func partitionSpool(spool, dir string, part *Partitioner) ([]int64, error) {
	in, err := os.Open(spool)
	if err != nil {
		return nil, err
	}
	defer in.Close()

	shards := part.Shards()
	files := make([]*os.File, shards)
	writers := make([]*bufio.Writer, shards)
	counts := make([]int64, shards)
	for i := range files {
		f, err := os.Create(shardPath(dir, i))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		files[i] = f
		writers[i] = bufio.NewWriterSize(f, 1<<16)
	}

	// Read in whole chunks; only the last read can be short, and it must
	// still end on a record boundary.
	buf := make([]byte, 1<<16)
	for {
		n, err := io.ReadFull(in, buf)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		if n%4 != 0 {
			return nil, fmt.Errorf("cluster: spool truncated mid-record (%d trailing bytes)", n%4)
		}
		for off := 0; off < n; off += 4 {
			word := buf[off : off+4]
			s := part.Route(binary.LittleEndian.Uint32(word))
			if _, err := writers[s].Write(word); err != nil {
				return nil, err
			}
			counts[s]++
		}
		if err != nil {
			break
		}
	}
	for i, w := range writers {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		if err := files[i].Close(); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.raw", i))
}

// warmTables relays the calibrated table artifact for half-width t from
// the first shard to the rest. The coordinator treats the artifact as
// opaque bytes.
func (co *Coordinator) warmTables(ctx context.Context, nodes []string, b memmodel.Backend, t float64) error {
	if b.Name() != memmodel.PCMMLC {
		return fmt.Errorf("table warming applies only to the %s backend", memmodel.PCMMLC)
	}
	artifact, err := co.client(nodes[0]).FetchTable(ctx, t)
	if err != nil {
		return err
	}
	for _, node := range nodes[1:] {
		if err := co.client(node).InstallTable(ctx, artifact); err != nil {
			return err
		}
	}
	return nil
}

// runShards submits one job per shard and waits for all of them,
// filling each ShardStat in place. The per-shard geometry comes from
// the planner's per-shard external plan; the per-shard seed from
// rng.Split, so a re-run of the same cluster sort is bit-reproducible.
func (co *Coordinator) runShards(ctx context.Context, dir string, plan core.Plan, shards []ShardStat) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	job := co.cfg.Job
	if per := plan.Sharded.PerShard; per != nil && (job.Mode == "" || job.Mode == "auto") {
		// Pin the planner's verdict instead of re-planning per shard:
		// every shard runs the same geometry the cross-shard pricing
		// assumed. The shard's own auto-planner would see only its
		// slice and could diverge.
		job.RunSize = per.RunSize
		job.FanIn = per.FanIn
		job.RefineAtMerge = per.RefineAtMerge
		if per.UseHybrid {
			job.Mode = "hybrid"
		} else {
			job.Mode = "precise"
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A panic under one shard fails that shard, not the
				// process: the sort fails as for any shard error.
				if p := recover(); p != nil {
					slog.Error("cluster: shard goroutine panicked", "node", shards[i].Node, "shard", i, "panic", p, "stack", string(debug.Stack()))
					errs[i] = &ShardError{Node: shards[i].Node, Stage: StagePanic, Err: fmt.Errorf("%v", p)}
				}
				if errs[i] != nil {
					cancel() // release the siblings promptly
				}
			}()
			errs[i] = co.runShard(ctx, dir, i, job, &shards[i])
		}(i)
	}
	wg.Wait()
	// The first failure cancelled the siblings, so most errs are
	// context.Canceled noise; surface the root cause.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// runShard drives one shard job start to finish.
func (co *Coordinator) runShard(ctx context.Context, dir string, i int, job JobParams, st *ShardStat) error {
	cl := co.client(st.Node)
	job.Seed = rng.Split(co.cfg.Job.Seed, "cluster", "shard", i)
	path := shardPath(dir, i)
	id, err := cl.Submit(ctx, job, func() (io.ReadCloser, error) { return os.Open(path) })
	if err != nil {
		return err
	}
	st.JobID = id
	os.Remove(path) // the shard spooled its copy; reclaim ours
	jv, err := cl.Wait(ctx, id)
	if err != nil {
		return err
	}
	if jv.Result == nil || jv.Result.Extsort == nil {
		return cl.fail("job", fmt.Errorf("job %s finished without an extsort result", id))
	}
	if got := jv.Result.Extsort.Records; got != st.Records {
		return cl.fail("job", fmt.Errorf("job %s sorted %d records, coordinator sent %d", id, got, st.Records))
	}
	if !jv.Result.Sorted || !jv.Result.Verified {
		return cl.fail("job", fmt.Errorf("job %s did not verify", id))
	}
	st.Verified = jv.Result.Verified
	st.WriteNanos = jv.Result.WriteNanos
	st.Runs = jv.Result.Extsort.Runs
	st.MergePasses = jv.Result.Extsort.MergePasses
	return nil
}

// concat copies the shard outputs to out in range order, each through
// the WrapShard hook and all through one NewAuditor stream, and books
// the final pass once the audit has passed.
func (co *Coordinator) concat(ctx context.Context, stats *Stats, out io.Writer) error {
	aud := co.cfg.NewAuditor(out)
	for i := range stats.Shards {
		if err := co.copyShard(ctx, i, &stats.Shards[i], aud); err != nil {
			return err
		}
	}
	if err := aud.Finish(stats.Records); err != nil {
		return err
	}
	stats.MergeWrites = stats.Records
	stats.MergeWriteNanos = float64(stats.Records) * mlc.PreciseWriteNanos
	return nil
}

// copyShard streams shard i's finished output into w.
func (co *Coordinator) copyShard(ctx context.Context, i int, st *ShardStat, w io.Writer) error {
	body, err := co.client(st.Node).Output(ctx, st.JobID)
	if err != nil {
		return err
	}
	defer body.Close()
	if _, err := io.Copy(w, co.cfg.WrapShard(i, st.Lo, st.Hi, st.Records, body)); err != nil {
		return fmt.Errorf("cluster: copying shard %d (%s job %s): %w", i, st.Node, st.JobID, err)
	}
	return nil
}
