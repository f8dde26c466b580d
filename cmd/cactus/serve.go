package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// serveCmd runs `cactus serve`: the characterization pipeline as a
// long-running HTTP service. It honors the global -j and -cache/-no-cache
// flags through opts, and the -metrics and -pprof flags through reg — the
// server's counters and histograms land in the registry those flags
// snapshot (nil builds a fresh one).
func serveCmd(args []string, opts core.StudyOptions, reg *telemetry.Registry, errOut io.Writer) error {
	fs := flag.NewFlagSet("cactus serve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	lruEntries := fs.Int("lru", 512, "in-memory profile cache capacity (entries)")
	maxInflight := fs.Int("max-inflight", 256, "admitted requests beyond this are rejected with 429")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request deadline (requests past it get 504)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("serve: unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *lruEntries < 1:
		return usagef("serve: -lru %d: need at least 1 entry", *lruEntries)
	case *maxInflight < 1:
		return usagef("serve: -max-inflight %d: need at least 1 request", *maxInflight)
	case *timeout <= 0:
		return usagef("serve: -timeout %v: need a positive deadline", *timeout)
	}

	srv, err := server.New(server.Options{
		Workers:     opts.Workers,
		Cache:       opts.Cache,
		LRUEntries:  *lruEntries,
		MaxInFlight: *maxInflight,
		Timeout:     *timeout,
		Registry:    reg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve listener: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(errOut, "cactus serve: listening on http://%s\n", ln.Addr())

	select {
	case err := <-serveErr:
		_ = srv.Shutdown(context.Background()) // the serve error is the one worth reporting
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	fmt.Fprintln(errOut, "cactus serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		_ = srv.Shutdown(sctx) // the HTTP shutdown error is the one worth reporting
		return err
	}
	return srv.Shutdown(sctx)
}
