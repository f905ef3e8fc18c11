package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one running sortd process.
type node struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped
}

// startNode launches sortd on an ephemeral loopback port and returns once
// the process has printed its listening address. Its output goes to
// logPath.
func startNode(bin, logPath string, args ...string) (*node, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain", "10s"}, args...)...)
	cmd.Stderr = logf
	// The kernel kills the daemon if the benchmark dies first, so no
	// sortd outlives an interrupted run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(n.done)
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "sortd listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait() // the exit status is reported through the log
	}()
	select {
	case a := <-addr:
		n.url = "http://" + a
		return n, nil
	case <-n.done:
		return nil, fmt.Errorf("sortd exited before listening (see %s)", logPath)
	case <-time.After(30 * time.Second):
		n.stop()
		return nil, fmt.Errorf("sortd did not report a listening address (see %s)", logPath)
	}
}

// stop sends SIGTERM, waits for the graceful drain, kills the process if
// the drain overruns, and returns once the process is reaped.
func (n *node) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(15 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
}

// peakRSSMiB returns the process's VmHWM (peak resident set) in MiB.
func (n *node) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// fleet is the set of sortd processes one workload runs against: a single
// node, or shard nodes plus a coordinator (the front node).
type fleet struct {
	shards []*node
	front  *node
}

// all returns every node, front last.
func (f *fleet) all() []*node {
	out := append([]*node(nil), f.shards...)
	if f.front != nil {
		out = append(out, f.front)
	}
	return out
}

func (f *fleet) shardURLs() []string {
	urls := make([]string, len(f.shards))
	for i, s := range f.shards {
		urls[i] = s.url
	}
	return urls
}

// stop stops every node concurrently and waits for all of them.
func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, n := range f.all() {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			n.stop()
		}(n)
	}
	wg.Wait()
}

// peakRSSMiB sums VmHWM over the fleet.
func (f *fleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, n := range f.all() {
		v, err := n.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// launch starts the workload's sortd processes, waits until every node
// answers /healthz, and runs the lazy MLC table calibration at the
// workload's T on every node. The returned duration is the set-up time:
// from the first process launch until that warm-up is done.
func launch(ctx context.Context, hc *http.Client, w workload, bin, dir string) (*fleet, time.Duration, error) {
	spool := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, 0, err
	}
	common := []string{"-workers", strconv.Itoa(w.workers), "-streamdir", spool, "-retain", "256"}
	f := &fleet{}
	start := time.Now()
	for i := 0; i < w.shards; i++ {
		n, err := startNode(bin, filepath.Join(dir, fmt.Sprintf("shard%d.log", i)), common...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.shards = append(f.shards, n)
	}
	args := common
	if w.shards > 0 {
		args = append(args, "-shards", strings.Join(f.shardURLs(), ","))
	}
	front, err := startNode(bin, filepath.Join(dir, "front.log"), args...)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.front = front
	if err := f.warm(ctx, hc); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// warm polls /healthz on every node, then fetches the calibrated table at
// the workload's T from each, which builds it on first request.
func (f *fleet) warm(ctx context.Context, hc *http.Client) error {
	nodes := f.all()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			if errs[i] = waitHealthy(ctx, hc, n); errs[i] != nil {
				return
			}
			_, errs[i] = fetch(ctx, hc, http.MethodGet, n.url+"/v1/tables?t="+strconv.FormatFloat(halfWidth, 'g', -1, 64), "", nil)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func waitHealthy(ctx context.Context, hc *http.Client, n *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := fetch(ctx, hc, http.MethodGet, n.url+"/healthz", "", nil); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz did not answer", n.url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.done:
			return fmt.Errorf("%s: sortd exited during start-up", n.url)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
