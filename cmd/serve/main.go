// Command serve runs the sharded in-memory diversification service: an
// HTTP JSON API over a live item index that absorbs inserts, deletes and
// weight updates while answering top-k diversification queries with the
// algorithms of Borodin et al. (PODS 2012).
//
// Usage:
//
//	serve [-addr :8080] [-shards 8] [-lambda 1] [-maintain-k 8]
//	      [-parallelism 0] [-flush-threshold 256] [-query-timeout 30s]
//	      [-backend f64|f32|vec-f32|vec-int8] [-batch 16] [-max-epochs-live 64]
//
// Endpoints (see internal/server for the full contract):
//
//	POST   /items       {"id":"a","weight":0.9,"vector":[1,0]} or an array
//	DELETE /items/{id}
//	POST   /diversify   {"k":10,"algorithm":"greedy","scope":"full"}
//	GET    /healthz
//	GET    /stats
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503, in-flight
// requests get up to -shutdown-timeout to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"maxsumdiv/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 8, "number of index shards")
	lambda := flag.Float64("lambda", 1, "quality/diversity trade-off λ")
	maintainK := flag.Int("maintain-k", 8, "per-shard maintained selection size")
	parallelism := flag.Int("parallelism", 0, "engine workers for query solves (0 = GOMAXPROCS)")
	flushThreshold := flag.Int("flush-threshold", 256, "pending mutations per shard before an inline batch apply")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request deadline for /diversify solves (0 = unlimited); expired queries answer 504. Queries solve lock-free on pinned corpus epochs, so a slow query only ever costs itself — the deadline is worker hygiene, not a liveness guard")
	backend := flag.String("backend", "", "corpus distance backend: f64 (exact, the default), f32 (half the resident bytes), vec-f32 or vec-int8 (compute-on-demand from vectors, O(n·d) resident)")
	batch := flag.Int("batch", 0, "max concurrent full-scope queries one batched solve may serve: identical (and, for the greedy family, prefix- and λ-compatible) queries pinning the same epoch share one candidate scan (0 = default 16, 1 disables coalescing)")
	rowCache := flag.Int("row-cache", 0, "distance rows the vec-f32/vec-int8 backends cache per corpus store and epoch, ≈ rows·items·4 bytes each (0 = default 64); ignored by f64/f32. Hit/miss counters appear in /stats")
	maxEpochsLive := flag.Int("max-epochs-live", 0, "shed mutations with 429 once more than this many published epochs are still pinned by in-flight queries (0 = default 64, negative disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	kind, err := server.ParseBackendKind(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	cfg := server.Config{
		Shards:         *shards,
		Lambda:         *lambda,
		MaintainK:      *maintainK,
		Parallelism:    *parallelism,
		FlushThreshold: *flushThreshold,
		QueryTimeout:   *queryTimeout,
		Backend:        kind,
		Batch:          *batch,
		MaxEpochsLive:  *maxEpochsLive,
		RowCache:       *rowCache,
	}
	if err := run(ctx, *addr, cfg, *shutdownTimeout, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then drains gracefully. It prints the
// bound address to out once listening (tests bind :0 and read it back).
func run(ctx context.Context, addr string, cfg server.Config, shutdownTimeout time.Duration, out io.Writer) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The backend in the startup line comes from the running corpus, not a
	// re-derivation of the config defaults, so it cannot drift.
	fmt.Fprintf(out, "serving on http://%s (%d shards, λ=%g, maintain-k=%d, backend=%s)\n",
		ln.Addr(), cfg.Shards, cfg.Lambda, cfg.MaintainK, srv.Stats().Corpus.Backend)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: stop advertising healthy, then let in-flight requests finish.
	srv.SetHealthy(false)
	fmt.Fprintln(out, "shutting down...")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "bye")
	return nil
}
