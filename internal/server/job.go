package server

import (
	"fmt"
	"math"
	"time"

	"approxsort/internal/cluster"
	"approxsort/internal/dataset"
	"approxsort/internal/extsort"
	"approxsort/internal/memmodel"
	"approxsort/internal/sorts"
)

// JobSpec is the one request shape of the three sort routes. Its field
// groups say which route reads what: Inline only POST /v1/sort, Common
// every route, External the out-of-core routes (/v1/sort/stream and
// /v1/sort/sharded), Fleet only /v1/sort/sharded. A JSON body may set
// only its route's fields; any other field is the decoder's unknown-field
// 400, as for a field no route knows. The out-of-core routes also take
// the keys as a raw little-endian uint32 body (Content-Type
// application/octet-stream), the route's other fields then riding in the
// query string under their JSON names (cluster.DecodeQuery), with a
// params map as params.<name>=<value> keys.
type JobSpec struct {
	Inline
	Common
	External
	Fleet

	// backend and point are the registry resolution of Backend/Params/T,
	// filled by validate. Unexported: execution state, not API surface.
	backend memmodel.Backend
	point   memmodel.Point
}

// Inline is the in-memory route's input and output: exactly one of Keys
// or Common.Dataset supplies the input.
type Inline struct {
	// Keys is the inline input array.
	Keys []uint32 `json:"keys,omitempty"`
	// ReturnKeys asks for the sorted key array in the response. Refused
	// above maxReturnKeys to keep job records small.
	ReturnKeys bool `json:"return_keys,omitempty"`
}

// Common holds the fields every sort route reads.
type Common struct {
	// Dataset generates the input server-side from a spec, so load tests
	// don't pay to ship megabytes of keys over the wire. The out-of-core
	// routes generate it as a stream (no materialized array), so
	// nearlysorted, which needs the whole array, is rejected there.
	Dataset *DatasetSpec `json:"dataset,omitempty"`

	// Algorithm selects the sort by its registry name (GET /v1/algorithms
	// lists them: quicksort, mergesort, lsd, msd, onesweep-lsd, …).
	// "auto" (the default) names a candidate roster the planner picks
	// from per backend and input: in-memory jobs pilot every registered
	// auto candidate (sorts.AutoCandidates) and keep the cheapest;
	// streaming and sharded jobs have the one-element roster
	// sorts.StreamCandidates, 6-bit MSD (the paper's Figure 9 winner).
	// Bits sets the radix digit width; 0 takes the algorithm's registry
	// default (6 for lsd/msd, 8 for onesweep-lsd).
	Algorithm string `json:"algorithm,omitempty"`
	Bits      int    `json:"bits,omitempty"`

	// Mode picks the execution path: "hybrid" forces approx-refine,
	// "precise" forces the traditional sort, and "auto" (default) runs
	// core.Planner's pilot and routes per Equation 4 — out of core, the
	// (M, B, ω) geometry also picks run size, fan-in and whether to defer
	// refine step 3 into the merge. Note the planner routes on write
	// latency; backends that save energy at full latency (spintronic)
	// always route precise under auto, so energy-motivated jobs on such
	// backends should force "hybrid".
	Mode string `json:"mode,omitempty"`

	// Backend names the approximate-memory device model from the
	// memmodel registry (GET /v1/backends lists them). Empty selects
	// "pcm-mlc", the paper's main-body model.
	Backend string `json:"backend,omitempty"`
	// Params sets the backend's operating point (e.g. {"saving": 0.33,
	// "bit_error_prob": 1e-5} for spintronic). Absent parameters take
	// the backend's documented defaults.
	Params map[string]float64 `json:"params,omitempty"`

	// T is the pcm-mlc target half-width — legacy shorthand for
	// params.t. 0 defaults to 0.055, the paper's sweet spot (Figure 9).
	// Rejected for other backends.
	T float64 `json:"t,omitempty"`

	// Seed drives the run's noise and pivot streams. The planner pilot
	// and execution derive sub-streams from it via rng.Split.
	Seed uint64 `json:"seed,omitempty"`
}

// External holds the out-of-core routes' geometry and disk quota.
type External struct {
	// RunSize is the in-memory run budget M in records (default 1M);
	// FanIn the merge width cap (default 16). Under mode auto these act
	// as the planner's M and fan-in ceiling.
	RunSize int `json:"run_size,omitempty"`
	FanIn   int `json:"fan_in,omitempty"`
	// Formation picks run formation: replacement (default) or chunk.
	Formation string `json:"formation,omitempty"`
	// RefineAtMerge defers each run's refine merge into the k-way merge.
	RefineAtMerge bool `json:"refine_at_merge,omitempty"`
	// MaxDiskBytes lowers the per-job disk quota below the server cap.
	MaxDiskBytes int64 `json:"max_disk_bytes,omitempty"`
}

// Fleet holds the sharded route's fan-out controls.
type Fleet struct {
	// Tenant is the placement identity: jobs from one tenant land on a
	// stable shard preference list on the consistent-hash ring, and the
	// per-tenant inflight quota is enforced under it. Empty is the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// MaxShards caps the fan-out below the fleet size (0 = whole fleet);
	// the coordinator's (M, B, ω, S) planner picks the actual count.
	MaxShards int `json:"max_shards,omitempty"`
	// WarmTables relays shard 0's calibrated MLC table to the rest of
	// the fleet before submitting (pcm-mlc only, best-effort).
	WarmTables bool `json:"warm_tables,omitempty"`
}

// fields returns the view of the spec a route decodes into: only the
// groups the route reads.
func (r *JobSpec) fields(kind string) any {
	switch kind {
	case KindSort:
		return &struct {
			*Inline
			*Common
		}{&r.Inline, &r.Common}
	case KindStream:
		return &struct {
			*Common
			*External
		}{&r.Common, &r.External}
	default:
		return &struct {
			*Common
			*External
			*Fleet
		}{&r.Common, &r.External, &r.Fleet}
	}
}

// maxReturnKeys bounds the sorted payload a job is willing to echo back.
const maxReturnKeys = 1 << 20

// DatasetSpec names a generated workload from internal/dataset.
type DatasetSpec struct {
	// Kind: uniform|sorted|reverse|nearlysorted|fewdistinct|zipf.
	Kind string `json:"kind"`
	N    int    `json:"n"`
	// Seed for the generator; 0 is a valid seed.
	Seed uint64 `json:"seed,omitempty"`
	// K is the distinct-value count for fewdistinct/zipf.
	K int `json:"k,omitempty"`
	// S is the Zipf exponent.
	S float64 `json:"s,omitempty"`
	// Swaps is the transposition count for nearlysorted.
	Swaps int `json:"swaps,omitempty"`
}

// validKinds names every dataset generator the API accepts.
var validKinds = map[string]bool{
	"": true, "uniform": true, "sorted": true, "reverse": true,
	"nearlysorted": true, "fewdistinct": true, "zipf": true,
}

// validate rejects malformed specs at admission time, so a bad request
// fails with 400 instead of a failed job.
func (d *DatasetSpec) validate() error {
	if !validKinds[d.Kind] {
		return fmt.Errorf("unknown dataset kind %q", d.Kind)
	}
	if d.K < 0 || d.Swaps < 0 || d.S < 0 {
		return fmt.Errorf("dataset parameters must be non-negative")
	}
	return nil
}

// materialize generates the spec'd keys.
func (d *DatasetSpec) materialize() ([]uint32, error) {
	if d.N < 0 {
		return nil, fmt.Errorf("dataset n = %d is negative", d.N)
	}
	switch d.Kind {
	case "uniform", "":
		return dataset.Uniform(d.N, d.Seed), nil
	case "sorted":
		return dataset.Sorted(d.N), nil
	case "reverse":
		return dataset.Reverse(d.N), nil
	case "nearlysorted":
		return dataset.NearlySorted(d.N, d.Swaps, d.Seed), nil
	case "fewdistinct":
		k := d.K
		if k <= 0 {
			k = 16
		}
		return dataset.FewDistinct(d.N, k, d.Seed), nil
	case "zipf":
		k, s := d.K, d.S
		if k <= 0 {
			k = 1024
		}
		if s <= 0 {
			s = 1.2
		}
		return dataset.Zipf(d.N, k, s, d.Seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", d.Kind)
	}
}

// validate checks the spec against its route (a Job kind) and applies
// defaults in place. upload reports an octet-stream key body; cfg bounds
// input sizes and disk quotas.
func (r *JobSpec) validate(kind string, cfg Config, upload bool) error {
	if kind == KindSort {
		if (len(r.Keys) > 0) == (r.Dataset != nil) {
			return fmt.Errorf("provide exactly one of keys or dataset")
		}
		n := len(r.Keys)
		if r.Dataset != nil {
			if err := r.Dataset.validate(); err != nil {
				return err
			}
			n = r.Dataset.N
		}
		if n <= 0 {
			return fmt.Errorf("input must have at least one key")
		}
		if n > cfg.MaxN {
			return fmt.Errorf("input size %d exceeds the server limit %d", n, cfg.MaxN)
		}
		if r.ReturnKeys && n > maxReturnKeys {
			return fmt.Errorf("return_keys allowed only up to %d keys, got %d", maxReturnKeys, n)
		}
	} else {
		if upload == (r.Dataset != nil) {
			return fmt.Errorf("provide the key stream as the request body or a dataset spec, not both")
		}
		if d := r.Dataset; d != nil {
			if err := d.validate(); err != nil {
				return err
			}
			if d.Kind == "nearlysorted" {
				return fmt.Errorf("dataset kind nearlysorted is not streamable")
			}
			if d.N <= 0 {
				return fmt.Errorf("dataset must have at least one key")
			}
			if b := 4 * int64(d.N); b > cfg.MaxStreamBytes {
				return fmt.Errorf("dataset stream of %d bytes exceeds the server quota %d", b, cfg.MaxStreamBytes)
			}
		}
	}
	switch r.Mode {
	case "":
		r.Mode = ModeAuto
	case ModeAuto, ModeHybrid, ModePrecise:
	default:
		return fmt.Errorf("unknown mode %q (want auto, hybrid or precise)", r.Mode)
	}
	if kind != KindSort {
		switch r.Formation {
		case "":
			r.Formation = extsort.FormationReplacement
		case extsort.FormationReplacement, extsort.FormationChunk:
		default:
			return fmt.Errorf("unknown formation %q (want replacement or chunk)", r.Formation)
		}
		if r.RunSize < 0 || r.FanIn < 0 || r.MaxDiskBytes < 0 {
			return fmt.Errorf("run_size, fan_in and max_disk_bytes must be non-negative")
		}
		if r.FanIn == 1 {
			return fmt.Errorf("fan_in = 1 cannot merge")
		}
		if r.MaxDiskBytes == 0 || r.MaxDiskBytes > cfg.MaxStreamBytes {
			r.MaxDiskBytes = cfg.MaxStreamBytes
		}
	}
	if r.Algorithm == "" {
		r.Algorithm = "auto"
	}
	if r.Bits != 0 && (r.Bits < 1 || r.Bits > 16) {
		return fmt.Errorf("bits = %d out of range [1, 16]", r.Bits)
	}
	if _, err := sorts.Select(r.Algorithm, r.Bits, nil); err != nil {
		return err // *sorts.UnknownAlgorithmError → 400 with the roster
	}
	b, pt, t, err := memmodel.Resolve(r.Backend, r.Params, r.T)
	if err != nil {
		return err // *memmodel.UnknownBackendError → 400
	}
	r.Backend, r.backend, r.point, r.T = b.Name(), b, pt, t
	if kind == KindSharded {
		if r.MaxShards < 0 {
			return fmt.Errorf("max_shards must be non-negative")
		}
		if r.Tenant == "" {
			r.Tenant = "default"
		}
	}
	return nil
}

// candidates is the spec's algorithm roster: its named algorithm alone,
// or for "auto" the route's auto roster.
func (r *JobSpec) candidates(kind string) []sorts.Candidate {
	auto := sorts.StreamCandidates(r.Bits)
	if kind == KindSort {
		auto = sorts.AutoCandidates()
	}
	cands, _ := sorts.Select(r.Algorithm, r.Bits, auto) // validated at admission
	return cands
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job kinds.
const (
	// KindSort is an in-memory POST /v1/sort job (the zero value, omitted
	// from JSON for compatibility).
	KindSort = ""
	// KindStream is an out-of-core POST /v1/sort/stream job.
	KindStream = "stream"
	// KindSharded is a multi-node POST /v1/sort/sharded job, fanned
	// across the configured shard fleet by the cluster coordinator.
	KindSharded = "sharded"
)

// Execution modes.
const (
	ModeAuto    = "auto"
	ModeHybrid  = "hybrid"
	ModePrecise = "precise"
)

// PlanView is the planner verdict echoed in a job result.
type PlanView struct {
	// Algorithm is the registry name the auto planner chose; empty when
	// the request fixed the algorithm and the planner only routed the mode.
	Algorithm     string  `json:"algorithm,omitempty"`
	UseHybrid     bool    `json:"use_hybrid"`
	PredictedWR   float64 `json:"predicted_wr"`
	P             float64 `json:"p"`
	PilotRemRatio float64 `json:"pilot_rem_ratio"`
	PredictedRem  int     `json:"predicted_rem"`
	PilotSize     int     `json:"pilot_size"`
}

// WriteCounts breaks a run's word writes down by memory kind.
type WriteCounts struct {
	Approx   int `json:"approx"`
	Precise  int `json:"precise"`
	Baseline int `json:"baseline,omitempty"`
}

// JobResult is the completed job's payload.
type JobResult struct {
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"` // hybrid or precise (auto resolved)
	N         int    `json:"n"`
	// Backend and Params echo the resolved memory model and its
	// normalized operating point; T is the legacy pcm-mlc half-width
	// column (0 for other backends).
	Backend string             `json:"backend"`
	Params  map[string]float64 `json:"params,omitempty"`
	T       float64            `json:"t"`

	// Plan is present when the job consulted the planner (mode auto).
	Plan *PlanView `json:"plan,omitempty"`

	// Extsort is the external-sort section of a streaming job's result:
	// run formation, merge structure, disk ledger, and the (M, B, ω)
	// planner verdict.
	Extsort *ExtsortView `json:"extsort,omitempty"`

	// Cluster is the multi-node section of a sharded job's result: the
	// per-shard ledger, splitters, the (M, B, ω, S) plan, and the
	// final pass's write accounting.
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// Rem is the refine stage's heuristic remainder Rem~ (hybrid only).
	Rem int `json:"rem"`
	// Writes counts word writes by memory kind; Baseline is the
	// precise-only reference when one was run.
	Writes WriteCounts `json:"writes"`
	// PredictedWR is Equation 4's verdict (mode auto only; otherwise 0),
	// ActualWR the measured Equation 2 reduction versus the baseline.
	PredictedWR float64 `json:"predicted_wr"`
	ActualWR    float64 `json:"actual_wr"`
	// WriteNanos is the modelled total memory write latency (TMWL).
	WriteNanos float64 `json:"write_nanos"`
	// PCMNanos is the CPU-visible clock of the run's access stream
	// driven through the Table 1 cache hierarchy + banked PCM device.
	PCMNanos float64 `json:"pcm_nanos"`
	// Sorted confirms the output passed the precision check.
	Sorted bool `json:"sorted"`
	// Verified confirms the run passed the full internal/verify audit:
	// differential oracle, permutation and record-identity checks, and
	// (hybrid mode) the refine write-budget and stage-accounting
	// identities. A job that fails verification fails outright, so a
	// done job always reports true; the field makes the contract
	// visible in the API.
	Verified bool `json:"verified"`
	// Keys is the sorted output, when return_keys was set.
	Keys []uint32 `json:"keys,omitempty"`
}

// sanitize clamps non-finite floats so the result is always JSON-encodable
// (encoding/json rejects NaN and ±Inf).
func (r *JobResult) sanitize() {
	fs := []*float64{&r.PredictedWR, &r.ActualWR, &r.WriteNanos, &r.PCMNanos}
	if r.Plan != nil {
		fs = append(fs, &r.Plan.PredictedWR, &r.Plan.P, &r.Plan.PilotRemRatio)
	}
	for _, f := range fs {
		if math.IsNaN(*f) {
			*f = 0
		} else if math.IsInf(*f, 1) {
			*f = math.MaxFloat64
		} else if math.IsInf(*f, -1) {
			*f = -math.MaxFloat64
		}
	}
}

// Job is one unit of work flowing queue → worker → store.
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Kind distinguishes in-memory sorts from streaming jobs.
	Kind string `json:"kind,omitempty"`

	// Echoed request coordinates, for list/debug views.
	Algorithm string  `json:"algorithm"`
	Mode      string  `json:"mode"`
	Backend   string  `json:"backend"`
	N         int     `json:"n"`
	T         float64 `json:"t"`

	// Progress is a streaming job's live progress (nil otherwise),
	// refreshed by the worker mid-run.
	Progress *JobProgress `json:"progress,omitempty"`
	// OutputBytes is a finished streaming job's downloadable output size.
	OutputBytes int64 `json:"output_bytes,omitempty"`

	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`

	// done closes when the job reaches a terminal state; spec carries the
	// work; dir is a streaming or sharded job's on-disk state and records
	// its input count. Unexported: none serialize.
	done    chan struct{}
	spec    *JobSpec
	dir     string
	records int64
}
