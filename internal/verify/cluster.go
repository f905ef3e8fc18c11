package verify

import (
	"encoding/binary"
	"fmt"
	"io"

	"approxsort/internal/cluster"
)

// This file is the verification half of the cluster coordinator's audit
// chain. cluster deliberately does not import verify (the same
// direction extsort keeps): the coordinator exposes the WrapShard and
// StreamAuditor hooks, and the serving layer plugs these checkers in.
//
// The cross-shard chain, end to end: every shard job verified its own
// sort (Auditor per run, StreamChecker on its output, ledger
// reconciliation); RangeReader pins each downloaded shard stream to the
// shard's assigned key range and record count as the coordinator copies
// it out; the concatenated output runs through a coordinator
// StreamChecker; and CheckClusterStats reconciles the coordinator's
// ledger — partition counts, shard ranges, and the exact final-pass
// write identity.

// RangeReader wraps one shard's sorted output stream, failing the read
// the moment a record is out of the shard's [lo, hi] range (inclusive
// — boundary values may legally land on either side of a splitter),
// decreases, or the stream ends at the wrong record count. It is the
// cluster.Config.WrapShard hook: a shard cannot smuggle keys outside
// its partition past it, so the output stream's provenance is pinned
// shard by shard.
type RangeReader struct {
	r       io.Reader
	label   string
	lo, hi  uint32
	expect  int64
	records int64
	prev    uint32
	started bool
	frag    [4]byte
	nfrag   int
	err     error
}

// NewRangeReader wraps r; label names the shard in errors; expect < 0
// skips the count check.
func NewRangeReader(r io.Reader, label string, lo, hi uint32, expect int64) *RangeReader {
	return &RangeReader{r: r, label: label, lo: lo, hi: hi, expect: expect}
}

// Records returns how many records have passed.
func (r *RangeReader) Records() int64 { return r.records }

// Read implements io.Reader, validating every complete record that
// passes through.
func (r *RangeReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, rerr := r.r.Read(p)
	b := p[:n]
	if r.nfrag > 0 {
		need := 4 - r.nfrag
		if need > len(b) {
			r.nfrag += copy(r.frag[r.nfrag:], b)
			b = b[len(b):]
		} else {
			copy(r.frag[r.nfrag:], b[:need])
			if err := r.record(binary.LittleEndian.Uint32(r.frag[:])); err != nil {
				return 0, err
			}
			r.nfrag = 0
			b = b[need:]
		}
	}
	for ; len(b) >= 4; b = b[4:] {
		if err := r.record(binary.LittleEndian.Uint32(b)); err != nil {
			return 0, err
		}
	}
	if len(b) > 0 {
		r.nfrag = copy(r.frag[:], b)
	}
	if rerr == io.EOF {
		if r.nfrag != 0 {
			r.err = fmt.Errorf("verify: %s: stream ends mid-record (%d trailing bytes)", r.label, r.nfrag)
			return n, r.err
		}
		if r.expect >= 0 && r.records != r.expect {
			r.err = fmt.Errorf("verify: %s: stream ended at %d records, want %d", r.label, r.records, r.expect)
			return n, r.err
		}
	}
	return n, rerr
}

func (r *RangeReader) record(k uint32) error {
	if k < r.lo || k > r.hi {
		r.err = fmt.Errorf("verify: %s: record %d key %d outside assigned range [%d, %d]",
			r.label, r.records, k, r.lo, r.hi)
		return r.err
	}
	if r.started && k < r.prev {
		r.err = fmt.Errorf("verify: %s: not sorted at record %d: %d after %d", r.label, r.records, k, r.prev)
		return r.err
	}
	if r.expect >= 0 && r.records >= r.expect {
		r.err = fmt.Errorf("verify: %s: stream exceeds expected %d records", r.label, r.expect)
		return r.err
	}
	r.prev = k
	r.started = true
	r.records++
	return nil
}

// WrapShards returns the production cluster.Config.WrapShard hook:
// every shard stream is range-pinned and count-pinned.
func WrapShards() func(shard int, lo, hi uint32, expect int64, r io.Reader) io.Reader {
	return func(shard int, lo, hi uint32, expect int64, r io.Reader) io.Reader {
		return NewRangeReader(r, fmt.Sprintf("shard %d", shard), lo, hi, expect)
	}
}

// CheckClusterStats reconciles a finished cluster sort's ledger: the
// partition counts must conserve the input, the shard ranges must tile
// the key space in splitter order, every shard must have verified its
// own job, and the coordinator's final pass must have charged exactly
// one precise write per record.
func CheckClusterStats(st cluster.Stats) *Report {
	rep := &Report{N: int(st.Records)}

	rep.check(st.Records > 0, "cluster-ledger", "Stats.Records = %d", st.Records)
	rep.check(len(st.Shards) >= 1, "cluster-ledger", "no shards in stats")
	rep.check(len(st.Splitters) == len(st.Shards)-1, "cluster-ledger",
		"%d splitters for %d shards", len(st.Splitters), len(st.Shards))
	if len(st.Splitters) != len(st.Shards)-1 {
		return rep
	}

	var sum int64
	for i, sh := range st.Shards {
		sum += sh.Records
		rep.check(sh.Records >= 0, "cluster-ledger", "shard %d has %d records", i, sh.Records)
		rep.check(sh.Lo <= sh.Hi, "cluster-range", "shard %d range [%d, %d] inverted", i, sh.Lo, sh.Hi)
		rep.check(sh.Records == 0 || sh.Verified, "cluster-verify",
			"shard %d (%s job %s) not verified", i, sh.Node, sh.JobID)
		rep.check(sh.Records == 0 || sh.WriteNanos > 0, "cluster-ledger",
			"shard %d sorted %d records but charged no write latency", i, sh.Records)
		if i > 0 {
			rep.check(sh.Lo == st.Shards[i-1].Hi, "cluster-range",
				"shard %d lo %d does not abut shard %d hi %d", i, sh.Lo, i-1, st.Shards[i-1].Hi)
		}
		if i < len(st.Splitters) {
			rep.check(sh.Hi == st.Splitters[i], "cluster-range",
				"shard %d hi %d is not splitter %d", i, sh.Hi, st.Splitters[i])
		}
	}
	rep.check(st.Shards[0].Lo == 0, "cluster-range", "shard 0 lo = %d, want 0", st.Shards[0].Lo)
	last := st.Shards[len(st.Shards)-1]
	rep.check(last.Hi == 1<<32-1, "cluster-range", "last shard hi = %d, want 2^32-1", last.Hi)
	rep.check(sum == st.Records, "cluster-ledger",
		"shard records sum to %d, coordinator routed %d", sum, st.Records)

	// The final pass concatenates the shard outputs once: exactly one
	// precise write per record.
	rep.check(st.MergeWrites == st.Records, "cluster-merge",
		"MergeWrites = %d, want one precise write per record = %d", st.MergeWrites, st.Records)
	rep.check(st.Records == 0 || st.MergeWriteNanos > 0, "cluster-merge",
		"merge charged no write latency over %d records", st.Records)

	if st.Plan != nil && st.Plan.Sharded != nil {
		rep.check(st.Plan.Sharded.Shards == len(st.Shards), "cluster-plan",
			"plan chose %d shards, coordinator ran %d", st.Plan.Sharded.Shards, len(st.Shards))
	}
	rep.check(st.Verified, "cluster-verify", "Stats.Verified is false")
	return rep
}
