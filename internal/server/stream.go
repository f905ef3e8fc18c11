package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"approxsort/internal/core"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/rng"
	"approxsort/internal/verify"
)

// JobProgress is a streaming job's point-in-time progress, refreshed by
// the worker as the sort advances and served in GET /v1/jobs/{id}.
type JobProgress struct {
	// Phase: form (reading input, forming runs) or merge.
	Phase string `json:"phase"`
	// Records ingested so far; Runs formed so far.
	Records int64 `json:"records"`
	Runs    int   `json:"runs"`
	// Pass is the current merge level (1-based); MergedRecords counts
	// records written in that pass.
	Pass          int   `json:"pass,omitempty"`
	MergedRecords int64 `json:"merged_records,omitempty"`
	// DiskBytes is the live spill footprint.
	DiskBytes int64 `json:"disk_bytes"`
}

// ExtsortView is the external-sort section of a streaming job's result.
type ExtsortView struct {
	Records       int64   `json:"records"`
	Runs          int     `json:"runs"`
	MeanRunLength float64 `json:"mean_run_length"`
	MergePasses   int     `json:"merge_passes"`
	Formation     string  `json:"formation"`
	RefineAtMerge bool    `json:"refine_at_merge"`
	RunSize       int     `json:"run_size"`
	FanIn         int     `json:"fan_in"`
	// RemTilde is the summed refine remainder over all runs.
	RemTilde int `json:"rem_tilde"`
	// Disk ledger: cumulative spill volume and peak live footprint.
	DiskBytesWritten int64 `json:"disk_bytes_written"`
	DiskHighWater    int64 `json:"disk_high_water"`
	// Charged write latency split: run formation vs merge staging.
	FormationWriteNanos float64 `json:"formation_write_nanos"`
	MergeWriteNanos     float64 `json:"merge_write_nanos"`
	// Plan is the (M, B, ω) planner verdict (mode auto only).
	Plan *core.ExternalPlan `json:"plan,omitempty"`
}

// spoolInput copies the upload to path, enforcing word alignment and the
// quota, and returns the byte count.
func spoolInput(path string, body io.Reader, quota int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := io.Copy(f, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return 0, fmt.Errorf("%w: upload exceeds the job quota %d", extsort.ErrDiskQuota, quota)
		}
		return 0, fmt.Errorf("reading upload: %w", err)
	}
	if quota > 0 && n > quota {
		return 0, fmt.Errorf("%w: upload of %d bytes exceeds the job quota %d", extsort.ErrDiskQuota, n, quota)
	}
	if n%4 != 0 {
		return 0, fmt.Errorf("upload of %d bytes is not a whole number of uint32 records", n)
	}
	return n, nil
}

// executeStream runs one streaming job: spooled upload or generated
// dataset in, verified sorted stream out, with the full audit chain
// (per-run Auditor, output StreamChecker, stats reconciliation) standing
// between the sort and a done status.
func (s *Server) executeStream(job *Job) (*JobResult, error) {
	req := job.spec
	alg := req.candidates(KindStream)[0].Alg
	b, pt := req.backend, req.point
	coords := b.SeedCoords(pt)
	seedParts := make([]any, 0, 4+len(coords))
	seedParts = append(seedParts, "sortd", "stream", alg.Name())
	seedParts = append(seedParts, coords...)
	seedParts = append(seedParts, uint64(job.records))

	cfg := extsort.Config{
		Core: core.Config{
			Algorithm: alg,
			NewSpace:  func(sd uint64) core.Space { return b.NewApprox(pt, sd) },
			Seed:      rng.Split(req.Seed, seedParts...),
		},
		RunSize:       req.RunSize,
		FanIn:         req.FanIn,
		TempDir:       job.dir,
		Formation:     req.Formation,
		RefineAtMerge: req.RefineAtMerge,
		Precise:       req.Mode == ModePrecise,
		AutoPlan:      req.Mode == ModeAuto,
		TotalRecords:  job.records,
		Omega:         memmodel.WriteCostRatio(b, pt),
		MaxDiskBytes:  req.MaxDiskBytes,
		Verifier:      verify.Auditor{ID: b.Identities(pt)},
		OnProgress: func(p extsort.Progress) {
			s.mu.Lock()
			job.Progress = &JobProgress{
				Phase: p.Phase, Records: p.Records, Runs: p.Runs,
				Pass: p.Pass, MergedRecords: p.MergedRecords, DiskBytes: p.DiskBytes,
			}
			s.mu.Unlock()
		},
	}

	var stats extsort.Stats
	err := s.sortToOutput(job, func(src io.Reader, out io.Writer) error {
		sc := verify.NewStreamChecker(out)
		var err error
		if stats, err = extsort.SortStream(src, sc, cfg); err != nil {
			return err
		}
		// The audit chain behind Verified: every run was checked by the
		// Auditor at formation time; the output stream must be monotone
		// and conserve the record count; the totals must reconcile
		// per-run.
		if err := sc.Finish(stats.Records); err != nil {
			return err
		}
		return verify.CheckExtsortStats(stats).Err()
	})
	if err != nil {
		return nil, err
	}

	s.extsortRecords.Add(uint64(stats.Records))
	s.extsortRuns.Add(uint64(stats.Runs))
	s.extsortMergePasses.Add(uint64(stats.MergePasses))
	s.extsortSpillBytes.Add(uint64(stats.DiskBytesWritten))

	mode := ModePrecise
	if stats.Hybrid {
		mode = ModeHybrid
	}
	res := &JobResult{
		Algorithm: alg.Name(),
		Mode:      mode,
		N:         job.N,
		Backend:   b.Name(),
		Params:    pt.Params,
		T:         req.T,
		Rem:       stats.RemTildeTotal,
		Writes: WriteCounts{
			Precise: int(stats.MergeWrites),
		},
		WriteNanos: stats.HybridWriteNanos + stats.MergeWriteNanos,
		Sorted:     true,
		Verified:   true,
		Extsort: &ExtsortView{
			Records:             stats.Records,
			Runs:                stats.Runs,
			MeanRunLength:       stats.MeanRunLength(),
			MergePasses:         stats.MergePasses,
			Formation:           stats.Formation,
			RefineAtMerge:       stats.RefineAtMerge,
			RunSize:             stats.RunSize,
			FanIn:               stats.FanIn,
			RemTilde:            stats.RemTildeTotal,
			DiskBytesWritten:    stats.DiskBytesWritten,
			DiskHighWater:       stats.DiskHighWater,
			FormationWriteNanos: stats.HybridWriteNanos,
			MergeWriteNanos:     stats.MergeWriteNanos,
			Plan:                stats.Plan,
		},
	}
	res.sanitize()
	return res, nil
}

// sortToOutput runs an out-of-core job's sort from its key stream — the
// generated dataset, or the upload spooled at admission — into its
// downloadable output file under the job's disk quota, then reclaims the
// spool. sort must verify what it wrote before returning nil.
func (s *Server) sortToOutput(job *Job, sort func(src io.Reader, out io.Writer) error) error {
	spool := filepath.Join(job.dir, "input.raw")
	var src io.Reader
	if d := job.spec.Dataset; d != nil {
		var err error
		if src, err = (dataset.StreamSpec{Kind: d.Kind, N: d.N, Seed: d.Seed, K: d.K, S: d.S}).Stream(); err != nil {
			return err
		}
	} else {
		f, err := os.Open(spool)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	out, err := os.Create(filepath.Join(job.dir, "output.raw"))
	if err != nil {
		return err
	}
	qw := &quotaWriter{w: out, max: job.spec.MaxDiskBytes}
	if err := sort(src, qw); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	os.Remove(spool)
	s.mu.Lock()
	job.OutputBytes = qw.n
	s.mu.Unlock()
	return nil
}

// quotaWriter enforces the job quota on the final output file, which the
// extsort disk tracker does not see (it only tracks intermediate spill).
type quotaWriter struct {
	w   io.Writer
	n   int64
	max int64
}

func (q *quotaWriter) Write(p []byte) (int, error) {
	q.n += int64(len(p))
	if q.max > 0 && q.n > q.max {
		return 0, fmt.Errorf("%w: output of %d bytes exceeds the job quota %d", extsort.ErrDiskQuota, q.n, q.max)
	}
	return q.w.Write(p)
}

// handleJobOutput streams a finished streaming job's sorted output.
func (s *Server) handleJobOutput(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/jobs/output"
	id := r.PathValue("id")
	s.mu.Lock()
	job, ok := s.jobs[id]
	var status, dir string
	var size int64
	if ok {
		status, dir, size = job.Status, job.dir, job.OutputBytes
	}
	kindOK := ok && (job.Kind == KindStream || job.Kind == KindSharded)
	s.mu.Unlock()
	if !ok {
		s.writeJSON(w, route, http.StatusNotFound, apiError{Error: "unknown job " + id})
		return
	}
	if !kindOK {
		s.writeJSON(w, route, http.StatusBadRequest, apiError{Error: "job " + id + " has no downloadable output"})
		return
	}
	if status != StatusDone {
		s.writeJSON(w, route, http.StatusConflict, apiError{Error: "job " + id + " is " + status})
		return
	}
	f, err := os.Open(filepath.Join(dir, "output.raw"))
	if err != nil {
		s.writeJSON(w, route, http.StatusGone, apiError{Error: "output no longer available"})
		return
	}
	defer f.Close()
	s.requests.With(route, "200").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	io.Copy(w, f)
}
