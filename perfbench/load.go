package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"approxsort/internal/rng"
)

// jobRecord is the slice of a sortd job snapshot the benchmark reads.
type jobRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		Mode       string   `json:"mode"`
		Algorithm  string   `json:"algorithm"`
		Verified   bool     `json:"verified"`
		WriteNanos float64  `json:"write_nanos"`
		Keys       []uint32 `json:"keys"`
	} `json:"result"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

// outcome is one job as the client saw it.
type outcome struct {
	input   int
	ok      bool   // done, Verified:true, output checked, no drift
	reason  string // why not ok
	keys    int
	latency time.Duration // send to the last byte of the output
	end     time.Time     // when the output's last byte arrived
	rec     jobRecord
}

// client submits one workload's jobs to the front node and checks them.
type client struct {
	hc      *http.Client
	base    string
	w       workload
	expects map[int]float64 // per-input write_nanos from the warm-up pass; nil while warming up
}

// submit runs one job and checks its output independently of sortd's own
// verdict. Any transport error, non-200 status, non-done job,
// Verified:false, wrong output or drift in the modelled write latency
// fails it.
func (c *client) submit(ctx context.Context, in *input) outcome {
	o := outcome{input: in.index, keys: len(in.keys)}
	start := time.Now()
	url := c.base + "/v1/sort?wait=1"
	ctype := "application/json"
	if c.w.shards > 0 {
		url = c.base + "/v1/sort/sharded?" + shardedQuery(c.w, in.seed)
		ctype = "application/octet-stream"
	}
	body, err := fetch(ctx, c.hc, http.MethodPost, url, ctype, in.body)
	if err != nil {
		o.reason = err.Error()
		return o
	}
	if c.w.shards == 0 {
		o.latency, o.end = time.Since(start), time.Now()
	}
	if err := json.Unmarshal(body, &o.rec); err != nil {
		o.reason = "decoding job record: " + err.Error()
		return o
	}
	r := o.rec.Result
	switch {
	case o.rec.Status != "done":
		o.reason = fmt.Sprintf("job %s is %s: %s", o.rec.ID, o.rec.Status, o.rec.Error)
		return o
	case r == nil || !r.Verified:
		o.reason = fmt.Sprintf("job %s does not report verified:true", o.rec.ID)
		return o
	}
	if c.w.shards > 0 {
		out, err := fetch(ctx, c.hc, http.MethodGet, c.base+"/v1/jobs/"+o.rec.ID+"/output", "", nil)
		if err != nil {
			o.reason = err.Error()
			return o
		}
		o.latency, o.end = time.Since(start), time.Now()
		if err := checkStream(out, len(in.keys), in.sum); err != nil {
			o.reason = fmt.Sprintf("job %s: %v", o.rec.ID, err)
			return o
		}
	} else if !slices.Equal(r.Keys, in.sorted) {
		o.reason = fmt.Sprintf("job %s returned keys that differ from the sorted input", o.rec.ID)
		return o
	}
	r.Keys = nil // checked; don't hold 50k keys per sample
	if want, ok := c.expects[in.index]; ok && r.WriteNanos != want {
		o.reason = fmt.Sprintf("job %s: write_nanos %v drifted from %v for the same input", o.rec.ID, r.WriteNanos, want)
		return o
	}
	o.ok = true
	return o
}

// shardedQuery is the octet-stream form of the sharded request.
func shardedQuery(w workload, seed uint64) string {
	return fmt.Sprintf("wait=1&mode=%s&algorithm=auto&backend=%s&t=%s&seed=%d&run_size=%d&warm_tables=true",
		w.mode, backend, strconv.FormatFloat(halfWidth, 'g', -1, 64), seed, w.runSize)
}

// fetch sends one request and returns the whole body of a 200 response;
// any other status is an error carrying the start of the body.
func fetch(ctx context.Context, hc *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// checkStream checks a little-endian uint32 output stream for its record
// count, non-decreasing order and the input's multiset checksum.
func checkStream(out []byte, n int, sum uint64) error {
	if len(out) != 4*n {
		return fmt.Errorf("output has %d bytes, want %d records", len(out), n)
	}
	var prev, got uint64
	for i := 0; i < len(out); i += 4 {
		k := binary.LittleEndian.Uint32(out[i:])
		if uint64(k) < prev {
			return fmt.Errorf("output out of order at record %d", i/4)
		}
		prev = uint64(k)
		got += mix64(uint64(k))
	}
	if got != sum {
		return fmt.Errorf("output checksum %#x differs from the input's %#x", got, sum)
	}
	return nil
}

// closedLoop runs clients closed-loop clients over the pool: each sends
// its next job only after the previous one completes and a pause of up to
// the workload's think time, drawn from a per-client stream. Inputs are
// taken round-robin. It stops handing out jobs after maxJobs jobs (0: no cap)
// or once deadline passes (zero: none), and returns after every job in
// flight has completed.
func closedLoop(ctx context.Context, c *client, pool []input, clients, maxJobs int, deadline time.Time) []outcome {
	var next atomic.Int64
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			think := rng.New(rng.Split(uint64(i), "perfbench", "think"))
			for ctx.Err() == nil {
				j := int(next.Add(1) - 1)
				if (maxJobs > 0 && j >= maxJobs) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				per[i] = append(per[i], c.submit(ctx, &pool[j%len(pool)]))
				if c.w.think > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(time.Duration(think.Intn(int(c.w.think)))):
					}
				}
			}
		}(i)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// tally counts failed outcomes and returns the first failure reasons.
func tally(outs []outcome) (failed int, reasons []string) {
	for _, o := range outs {
		if !o.ok {
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, o.reason)
			}
		}
	}
	return failed, reasons
}
