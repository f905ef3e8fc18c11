// Command sortd is the sorting-as-a-service daemon: a long-lived HTTP
// server that executes sort jobs on the simulated hybrid
// precise/approximate memory system, routing each job through the
// Section 4.3 planner when asked to.
//
// API:
//
//	POST /v1/sort           submit a job; ?wait=1 blocks for the result
//	POST /v1/sort/stream    submit an out-of-core streaming job
//	POST /v1/sort/sharded   fan one sort across the -shards fleet
//	GET  /v1/jobs/{id}      poll a job record; ?wait=1 blocks until it is terminal
//	GET  /v1/jobs/{id}/output  download a finished job's sorted stream
//	GET  /v1/tables         export a calibrated MLC table artifact
//	POST /v1/tables         install a relayed table artifact
//	GET  /healthz           readiness (503 while draining)
//	GET  /metrics           Prometheus text metrics
//
// Usage:
//
//	go run ./cmd/sortd [-addr :8080] [-workers 0] [-queue 64]
//	                   [-pilot 4096] [-maxn 8388608] [-drain 30s]
//	                   [-shards http://h1:8081,http://h2:8081]
//	                   [-tenant-inflight 2] [-streamdir DIR]
//
// With -shards the instance also acts as a cluster coordinator:
// POST /v1/sort/sharded range-partitions the input over the listed
// sortd nodes, runs one verified approx-refine job per shard, and
// concatenates the audited shard outputs in range order.
//
// SIGINT/SIGTERM trigger a graceful drain: health flips to 503, new jobs
// are refused, queued and in-flight jobs finish (up to -drain), then the
// listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"approxsort/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sortd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Connection timeouts. WriteTimeout stays zero: a ?wait reply or an
// /output download lasts as long as its job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's http.Server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// onListen, when non-nil, receives the bound address once the listener is
// up — the end-to-end test uses it to find a :0 port.
var onListen func(addr string)

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sortd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	queue := fs.Int("queue", 64, "bounded job-queue depth (full => 429)")
	pilot := fs.Int("pilot", 0, "planner pilot sample size (0 = default 4096)")
	maxN := fs.Int("maxn", 8<<20, "largest accepted input size")
	retain := fs.Int("retain", 4096, "finished job records kept for GET /v1/jobs; each holds a return_keys job's sorted output (4 bytes per key), never its input")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	shards := fs.String("shards", "", "comma-separated shard sortd URLs; enables the /v1/sort/sharded coordinator")
	tenantInflight := fs.Int("tenant-inflight", 2, "concurrent sharded sorts allowed per tenant")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Minute, "deadline for one sharded sort's whole shard fan-out")
	streamDir := fs.String("streamdir", "", "streaming/sharded job spool directory (default: OS temp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", *queue)
	}
	if *maxN < 1 {
		return fmt.Errorf("-maxn must be positive, got %d", *maxN)
	}

	var shardNodes []string
	if *shards != "" {
		for _, n := range strings.Split(*shards, ",") {
			if n = strings.TrimSpace(n); n != "" {
				shardNodes = append(shardNodes, n)
			}
		}
		if len(shardNodes) == 0 {
			return fmt.Errorf("-shards must list at least one node URL")
		}
	}

	s := server.New(server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		PilotSize:         *pilot,
		MaxN:              *maxN,
		RetainJobs:        *retain,
		StreamDir:         *streamDir,
		ShardNodes:        shardNodes,
		TenantMaxInflight: *tenantInflight,
		ShardSortTimeout:  *shardTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sortd listening on %s (workers=%d queue=%d maxn=%d shards=%d)\n",
		ln.Addr(), *workers, *queue, *maxN, len(shardNodes))
	if onListen != nil {
		onListen(ln.Addr().String())
	}

	httpSrv := newHTTPServer(s.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "sortd draining (budget %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := s.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(stdout, "sortd drained cleanly")
	return nil
}
