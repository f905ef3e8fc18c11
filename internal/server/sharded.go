package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"approxsort/internal/cluster"
	"approxsort/internal/mlc"
	"approxsort/internal/verify"
)

// acquireTenant claims one sharded-job slot for the tenant, failing when
// the per-tenant inflight cap is reached.
func (s *Server) acquireTenant(tenant string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenantInflight == nil {
		s.tenantInflight = make(map[string]int)
	}
	if s.tenantInflight[tenant] >= s.cfg.TenantMaxInflight {
		return false
	}
	s.tenantInflight[tenant]++
	return true
}

func (s *Server) releaseTenant(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenantInflight[tenant] > 1 {
		s.tenantInflight[tenant]--
	} else {
		delete(s.tenantInflight, tenant)
	}
}

// executeSharded runs one sharded job: the coordinator partitions the
// input across the shard fleet, every shard runs a verified
// approx-refine job, and the cross-shard merge flows back through the
// full audit chain (range-pinned shard streams, merged-stream checker,
// cluster ledger reconciliation).
func (s *Server) executeSharded(job *Job) (*JobResult, error) {
	req := job.spec
	co, err := cluster.New(cluster.Config{
		Nodes:        s.cfg.ShardNodes,
		PlacementKey: req.Tenant,
		Job: cluster.JobParams{
			Algorithm:     req.Algorithm,
			Bits:          req.Bits,
			Mode:          req.Mode,
			Backend:       req.Backend,
			Params:        req.point.Params,
			Seed:          req.Seed,
			RunSize:       req.RunSize,
			FanIn:         req.FanIn,
			Formation:     req.Formation,
			RefineAtMerge: req.RefineAtMerge,
		},
		MaxShards:  req.MaxShards,
		TempDir:    job.dir,
		WarmTables: req.WarmTables,
		NewAuditor: func(w io.Writer) cluster.StreamAuditor { return verify.NewStreamChecker(w) },
		WrapShard:  verify.WrapShards(),
	})
	if err != nil {
		return nil, err
	}
	// The fan-out runs under a deadline, not under the request context:
	// graceful drain promises accepted jobs completion, but a hung shard
	// node must not pin the job, its tenant slot and a worker forever.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShardSortTimeout)
	defer cancel()
	var stats cluster.Stats
	err = s.sortToOutput(job, func(src io.Reader, out io.Writer) error {
		var err error
		if stats, err = co.Sort(ctx, src, out); err != nil {
			return err
		}
		// The coordinator already held the merged stream to the
		// StreamChecker and every shard range to its RangeReader; the
		// ledger reconciliation is the last gate before done.
		return verify.CheckClusterStats(stats).Err()
	})
	if err != nil {
		return nil, err
	}

	s.clusterShards.Add(uint64(len(stats.Shards)))
	s.clusterRecords.Add(uint64(stats.Records))

	mode := req.Mode
	if mode == "" || mode == ModeAuto {
		mode = ModePrecise
		if stats.Plan != nil && stats.Plan.Sharded != nil &&
			stats.Plan.Sharded.PerShard != nil && stats.Plan.Sharded.PerShard.UseHybrid {
			mode = ModeHybrid
		}
	}
	var writeNanos float64
	for _, sh := range stats.Shards {
		writeNanos += sh.WriteNanos
	}
	writeNanos += stats.MergeWriteNanos

	res := &JobResult{
		Algorithm:  req.Algorithm,
		Mode:       mode,
		N:          job.N,
		Backend:    req.Backend,
		Params:     req.point.Params,
		T:          req.T,
		Writes:     WriteCounts{Precise: int(stats.MergeWrites)},
		WriteNanos: writeNanos,
		Sorted:     true,
		Verified:   stats.Verified,
		Cluster:    &stats,
	}
	res.sanitize()
	return res, nil
}

// handleTablesGet serves the shared cache's calibrated MLC transition
// table for half-width t as a portable artifact, building (and caching)
// it on first request. The coordinator's table-warming relay fetches
// from one shard and installs everywhere else, so a cold fleet pays one
// calibration campaign.
func (s *Server) handleTablesGet(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/tables"
	q := r.URL.Query()
	ts := q.Get("t")
	if ts == "" {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "missing t"})
		return
	}
	t, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad t: " + err.Error()})
		return
	}
	p := mlc.Approximate(t)
	if err := p.Validate(); err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	samples := 0
	if ss := q.Get("samples"); ss != "" {
		if samples, err = strconv.Atoi(ss); err != nil || samples < 0 {
			s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad samples"})
			return
		}
	}
	seed := mlc.CalibrationSeed
	if ss := q.Get("seed"); ss != "" {
		if seed, err = strconv.ParseUint(ss, 10, 64); err != nil {
			s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad seed"})
			return
		}
	}
	tbl := mlc.SharedTables().Get(p, samples, seed)
	s.writeJSON(w, route, http.StatusOK, tbl.Artifact(samples, seed))
}

// handleTablesPost installs a relayed table artifact into the shared
// cache. Installing an artifact that is already resident is a no-op 200;
// a fresh install returns 201.
func (s *Server) handleTablesPost(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/tables"
	var a mlc.TableArtifact
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&a); err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "bad artifact: " + err.Error()})
		return
	}
	installed, err := mlc.SharedTables().Install(a)
	if err != nil {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	code := http.StatusOK
	if installed {
		code = http.StatusCreated
	}
	s.writeJSON(w, route, code, map[string]bool{"installed": installed})
}
