package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startDaemon runs the daemon on a kernel-chosen port and returns its base
// URL plus a stop function that triggers the graceful drain and waits for
// exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	onListen = func(a string) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })

	var out bytes.Buffer
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s"}, extraArgs...)
	go func() { errCh <- run(ctx, args, &out) }()

	select {
	case addr := <-addrCh:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errCh:
				if !strings.Contains(out.String(), "drained cleanly") {
					t.Errorf("daemon did not drain cleanly:\n%s", out.String())
				}
				return err
			case <-time.After(15 * time.Second):
				return fmt.Errorf("daemon did not exit")
			}
		}
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	panic("unreachable")
}

func TestDaemonEndToEnd(t *testing.T) {
	base, stop := startDaemon(t)

	// Readiness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// One auto-routed job, synchronous.
	body := `{"keys":[9,7,8,1,3,2,6,4,5],"algorithm":"auto","return_keys":true}`
	resp, err = http.Post(base+"/v1/sort?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Result *struct {
			Sorted bool     `json:"sorted"`
			Mode   string   `json:"mode"`
			Keys   []uint32 `json:"keys"`
			Plan   *struct {
				UseHybrid bool `json:"use_hybrid"`
			} `json:"plan"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.Status != "done" || job.Result == nil {
		t.Fatalf("job = %+v", job)
	}
	if !job.Result.Sorted || job.Result.Plan == nil {
		t.Fatalf("result incomplete: %+v", job.Result)
	}
	for i := 1; i < len(job.Result.Keys); i++ {
		if job.Result.Keys[i-1] > job.Result.Keys[i] {
			t.Fatalf("output not sorted: %v", job.Result.Keys)
		}
	}

	// Metrics surface is live.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "sortd_jobs_total") {
		t.Error("metrics missing sortd_jobs_total")
	}

	if err := stop(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-queue", "0"}, &out); err == nil {
		t.Error("-queue 0 accepted")
	}
	if err := run(ctx, []string{"-maxn", "-5"}, &out); err == nil {
		t.Error("-maxn -5 accepted")
	}
	if err := run(ctx, []string{"-addr", "256.0.0.1:bad"}, &out); err == nil {
		t.Error("bad -addr accepted")
	}
}

// TestHTTPServerTimeouts pins the daemon's connection timeouts: slow or
// idle clients cannot hold connections forever, while WriteTimeout stays
// zero so job-long ?wait replies and /output streams are not cut.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute || srv.WriteTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v, WriteTimeout = %v; want 10s, 2m, 0",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
}
