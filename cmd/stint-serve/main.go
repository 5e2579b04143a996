// Command stint-serve runs the long-lived trace-ingest service: a pool of
// pre-warmed, reused Runners behind a small JSON API. Record traces with
// `stint -workload X -trace-out FILE` (or the stint/trace package), then:
//
//	stint-serve -addr :8080 -runners 4 &
//	curl -s --data-binary @trace.bin localhost:8080/v1/traces
//	  → {"id":"t-000001"}
//	curl -s localhost:8080/v1/results/t-000001
//	curl -s localhost:8080/v1/statusz
//
// Every worker owns one Runner whose slab pools and pipeline state are
// allocated once and rewound between traces (Runner.Reset), so steady-state
// ingest performs no per-trace heap growth; reports are byte-identical to
// fresh-Runner replays. Admission is backpressured (full queue → 429) and
// per-run caps bound each replay's memory (oversized upload → 413; event
// budget or access-history cap exceeded → result status "error", counted
// as oversized in /v1/statusz). Slow or idle connections are bounded by
// header-read and keep-alive timeouts, and SIGTERM/SIGINT drain in-flight
// requests and queued replays before the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"stint/internal/cliutil"
	"stint/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		runners   = flag.Int("runners", runtime.GOMAXPROCS(0), "warm Runner pool size (max concurrent replays)")
		queue     = flag.Int("queue", 0, "admission queue depth (default 2x runners)")
		detOpts   = cliutil.DetectorFlags(flag.CommandLine) // applied to every replay
		races     = flag.Int("races", 64, "max races recorded per trace")
		maxBytes  = flag.Int64("max-trace-bytes", 64<<20, "reject uploads larger than this (413); negative disables")
		maxEvents = flag.Uint64("max-events", 0, "abort replays exceeding this many trace events (0 = unbounded)")
	)
	flag.Parse()
	opts, err := detOpts()
	if err == nil {
		opts.MaxRacesRecorded = *races
		err = run(*addr, serve.Config{
			Runners:       *runners,
			QueueDepth:    *queue,
			MaxTraceBytes: *maxBytes,
			MaxEvents:     *maxEvents,
			Opts:          opts,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stint-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	// Bind before announcing so ":0" reports the kernel-chosen port — the
	// smoke harness scrapes this line to find the server.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("stint-serve: listening on %s (%d runners, warm pool, detector %v)\n",
		ln.Addr(), cfg.Runners, cfg.Opts.Detector)
	// A client that stalls before its headers are in, or parks an idle
	// keep-alive connection, is cut off. There is deliberately no body
	// ReadTimeout: a 15 MB trace upload takes as long as the link needs,
	// and a stalled one holds what it has sent, or one of a fixed number
	// of MaxTraceBytes buffers (serve's readUpload).
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
		// Stop accepting and let in-flight requests finish; the deferred
		// s.Close() then drains the admitted replays.
		grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(grace)
	}
}
