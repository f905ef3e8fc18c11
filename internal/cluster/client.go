package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ShardError is the typed failure of one shard interaction: which node,
// which stage of the shard's lifecycle (submit, poll, job, output,
// table), and the underlying cause. A killed or unreachable shard
// surfaces as a ShardError, never as a hang — every request runs under
// the caller's context.
type ShardError struct {
	Node  string
	Stage string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %s: %s: %v", e.Node, e.Stage, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// JobParams are the sort parameters a shard job is submitted with: the
// octet-stream form of POST /v1/sort/stream, under the names of its JSON
// body. Backend, Params and T are forwarded unchanged, so each shard
// resolves the same operating point as the coordinator.
type JobParams struct {
	Algorithm     string             `json:"algorithm,omitempty"`
	Bits          int                `json:"bits,omitempty"`
	Mode          string             `json:"mode,omitempty"`
	Backend       string             `json:"backend,omitempty"`
	Params        map[string]float64 `json:"params,omitempty"`
	T             float64            `json:"t,omitempty"`
	Seed          uint64             `json:"seed,omitempty"`
	RunSize       int                `json:"run_size,omitempty"`
	FanIn         int                `json:"fan_in,omitempty"`
	Formation     string             `json:"formation,omitempty"`
	RefineAtMerge bool               `json:"refine_at_merge,omitempty"`
}

// EncodeQuery renders the struct v points to as an octet-stream upload's
// query: every non-zero scalar field under its JSON name, and a
// map[string]float64 field as one name.key entry per key
// (params.saving=0.5). Fields of embedded structs are included.
// DecodeQuery is its inverse; together they are the one query codec of
// sortd's upload routes and the coordinator's shard submissions.
func EncodeQuery(v any) url.Values {
	q := url.Values{}
	queryFields(reflect.ValueOf(v), func(name string, f reflect.Value) error {
		switch {
		case f.IsZero():
		case f.Kind() == reflect.Map:
			iter := f.MapRange()
			for iter.Next() {
				q.Set(name+"."+iter.Key().String(), strconv.FormatFloat(iter.Value().Float(), 'g', -1, 64))
			}
		case f.Kind() == reflect.Float64:
			q.Set(name, strconv.FormatFloat(f.Float(), 'g', -1, 64))
		default:
			q.Set(name, fmt.Sprint(f.Interface()))
		}
		return nil
	})
	return q
}

// DecodeQuery sets the fields of the struct v points to from q, by the
// names EncodeQuery writes. Keys v has no field for, and empty values,
// are ignored; a malformed value is an error naming its key. Map values
// must be finite, as in a JSON body.
func DecodeQuery(q url.Values, v any) error {
	return queryFields(reflect.ValueOf(v), func(name string, f reflect.Value) error {
		if f.Kind() == reflect.Map {
			keys := make([]string, 0, len(q))
			for k := range q {
				if strings.HasPrefix(k, name+".") {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				x, err := strconv.ParseFloat(q.Get(k), 64)
				if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
					err = errors.New("not a finite number")
				}
				if err != nil {
					return fmt.Errorf("bad %s: %v", k, err)
				}
				if f.IsNil() {
					f.Set(reflect.MakeMap(f.Type()))
				}
				f.SetMapIndex(reflect.ValueOf(strings.TrimPrefix(k, name+".")), reflect.ValueOf(x))
			}
			return nil
		}
		s := q.Get(name)
		if s == "" {
			return nil
		}
		var err error
		switch f.Kind() {
		case reflect.String:
			f.SetString(s)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(s)
			f.SetBool(b)
		case reflect.Int:
			var n int
			n, err = strconv.Atoi(s)
			f.SetInt(int64(n))
		case reflect.Int64:
			var n int64
			n, err = strconv.ParseInt(s, 10, 64)
			f.SetInt(n)
		case reflect.Uint64:
			var n uint64
			n, err = strconv.ParseUint(s, 10, 64)
			f.SetUint(n)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(s, 64)
			f.SetFloat(x)
		}
		if err != nil {
			return fmt.Errorf("bad %s: %v", name, err)
		}
		return nil
	})
}

// queryFields calls fn on each JSON-named field of the struct v holds or
// points to, descending into embedded structs, and stops at fn's first
// error.
func queryFields(v reflect.Value, fn func(name string, f reflect.Value) error) error {
	v = reflect.Indirect(v)
	for i := 0; i < v.NumField(); i++ {
		sf, f := v.Type().Field(i), v.Field(i)
		if sf.Anonymous {
			if err := queryFields(f, fn); err != nil {
				return err
			}
			continue
		}
		if name, _, _ := strings.Cut(sf.Tag.Get("json"), ","); name != "" && name != "-" {
			if err := fn(name, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// jobView mirrors the slice of the sortd job snapshot the coordinator
// consumes. Unknown fields are ignored by design: the coordinator must
// tolerate shards a minor version ahead.
type jobView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	OutputBytes int64  `json:"output_bytes"`
	Result      *struct {
		Verified   bool    `json:"verified"`
		Sorted     bool    `json:"sorted"`
		WriteNanos float64 `json:"write_nanos"`
		Extsort    *struct {
			Records     int64 `json:"records"`
			Runs        int   `json:"runs"`
			MergePasses int   `json:"merge_passes"`
		} `json:"extsort"`
	} `json:"result"`
}

// Client drives one sortd node's HTTP API on behalf of the coordinator.
type Client struct {
	// Node is the shard's base URL, e.g. "http://127.0.0.1:8081".
	Node string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// SubmitRetries bounds retries after 429 queue-full responses
	// (default 20, honoring Retry-After between attempts).
	SubmitRetries int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) fail(stage string, err error) *ShardError {
	return &ShardError{Node: c.Node, Stage: stage, Err: err}
}

// decodeError extracts a sortd {"error": ...} body, falling back to the
// HTTP status.
func decodeError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return errors.New(resp.Status)
}

// Submit streams body (little-endian uint32 keys) to the shard as an
// octet-stream /v1/sort/stream job and returns the job ID. A 429
// queue-full response backs off per Retry-After and retries; bodyFn
// re-opens the upload for each attempt.
func (c *Client) Submit(ctx context.Context, p JobParams, bodyFn func() (io.ReadCloser, error)) (string, error) {
	u := c.Node + "/v1/sort/stream?" + EncodeQuery(&p).Encode()
	retries := c.SubmitRetries
	if retries <= 0 {
		retries = 20
	}
	for attempt := 0; ; attempt++ {
		body, err := bodyFn()
		if err != nil {
			return "", c.fail("submit", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
		if err != nil {
			body.Close()
			return "", c.fail("submit", err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.http().Do(req)
		if err != nil {
			return "", c.fail("submit", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			resp.Body.Close()
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return "", c.fail("submit", ctx.Err())
			}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return "", c.fail("submit", decodeError(resp))
		}
		var jv jobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			return "", c.fail("submit", err)
		}
		if jv.ID == "" {
			return "", c.fail("submit", errors.New("shard returned no job id"))
		}
		return jv.ID, nil
	}
}

// Wait blocks on GET /v1/jobs/{id}?wait=1, which the shard answers once
// the job is terminal, and returns the final snapshot. A failed job is a
// ShardError at stage "job" carrying the shard's own error text; a
// request that fails or ends early, or a non-terminal reply, is a
// ShardError at stage "poll".
func (c *Client) Wait(ctx context.Context, jobID string) (jobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Node+"/v1/jobs/"+jobID+"?wait=1", nil)
	if err != nil {
		return jobView{}, c.fail("poll", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return jobView{}, c.fail("poll", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, c.fail("poll", decodeError(resp))
	}
	var jv jobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		return jobView{}, c.fail("poll", err)
	}
	switch jv.Status {
	case "done":
		return jv, nil
	case "failed":
		return jobView{}, c.fail("job", fmt.Errorf("job %s failed: %s", jobID, jv.Error))
	}
	return jobView{}, c.fail("poll", fmt.Errorf("job %s is %q after a blocking wait", jobID, jv.Status))
}

// Output opens the finished job's sorted stream. The caller must close
// the returned reader.
func (c *Client) Output(ctx context.Context, jobID string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Node+"/v1/jobs/"+jobID+"/output", nil)
	if err != nil {
		return nil, c.fail("output", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, c.fail("output", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, c.fail("output", decodeError(resp))
	}
	return resp.Body, nil
}

// FetchTable downloads the shard's calibrated MLC table artifact for
// half-width t as raw JSON (the coordinator relays it opaquely — it
// never needs the mlc package itself).
func (c *Client) FetchTable(ctx context.Context, t float64) ([]byte, error) {
	u := c.Node + "/v1/tables?t=" + url.QueryEscape(strconv.FormatFloat(t, 'g', -1, 64))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, c.fail("table", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, c.fail("table", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.fail("table", decodeError(resp))
	}
	return io.ReadAll(resp.Body)
}

// InstallTable uploads a table artifact previously fetched from a warm
// shard.
func (c *Client) InstallTable(ctx context.Context, artifact []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Node+"/v1/tables",
		bytes.NewReader(artifact))
	if err != nil {
		return c.fail("table", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return c.fail("table", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return c.fail("table", decodeError(resp))
	}
	return nil
}
