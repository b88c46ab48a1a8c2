// dvid is the DVI daemon: it serves the reproduction's capabilities —
// kill insertion, timing simulation, context-switch liveness sampling —
// over HTTP/JSON to many concurrent clients, sharing one execution
// engine and single-flight build cache across all of them.
//
// Usage:
//
//	dvid                                  # serve on :8077
//	dvid -addr 127.0.0.1:9000 -j 8        # eight engine workers
//	dvid -concurrent 16 -queue 512        # admission tuning
//	dvid -cache 128 -max-insts 5000000    # cache + budget ceilings
//	dvid -store /var/lib/dvid             # crash-safe artifact store
//	dvid -gateway -backends http://a:8077,http://b:8077
//
// Endpoints: POST /v2/jobs (heterogeneous job batches, NDJSON results
// streamed in submission order), /v1/annotate, /v1/simulate,
// /v1/ctxswitch; GET /v1/workloads, /healthz, /metrics,
// /debug/trace/recent (recent request span trees) and /debug/pprof/*
// (runtime profiling). See internal/service (and API.md) for the wire
// format; the /v1 endpoints are shims over the same execution path as
// /v2/jobs. SIGINT/SIGTERM trigger a graceful drain: /healthz flips to
// "draining" (ejecting the daemon from any gateway's rotation), the
// listener closes, in-flight requests finish (up to -drain), then the
// process exits 0.
//
// With -store DIR, compiled binaries and sampled-simulation results
// persist to a content-addressed on-disk store: a daemon restarted on
// the same directory — cleanly or after kill -9 — serves warm batches
// without recompiling or re-scanning anything.
//
// With -gateway, dvid routes across the -backends fleet instead of
// serving locally: consistent-hash routing by build key, active health
// checks, retries with capped backoff, tail-latency hedging, and
// per-backend circuit breakers, degrading to in-process execution when
// every backend is down.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dvi/internal/gateway"
	"dvi/internal/service"
	"dvi/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8077", "listen address")
		workers     = flag.Int("j", runtime.GOMAXPROCS(0), "engine worker pool size")
		concurrent  = flag.Int("concurrent", 0, "max concurrently executing requests (0 = -j)")
		queue       = flag.Int("queue", service.DefaultMaxQueue, "admission queue depth before 429s")
		cache       = flag.Int("cache", service.DefaultCacheCapacity, "build cache capacity in binaries (LRU; 0 = default, -1 = unbounded)")
		maxInsts    = flag.Uint64("max-insts", service.DefaultMaxInsts, "ceiling on per-request instruction budgets")
		maxScale    = flag.Int("max-scale", service.DefaultMaxScale, "ceiling on per-request workload scale")
		maxJobs     = flag.Int("max-jobs", service.DefaultMaxJobs, "ceiling on jobs per /v2/jobs batch")
		traceRing   = flag.Int("trace-ring", service.DefaultTraceRing, "request span trees retained for /debug/trace/recent (-1 disables)")
		maxTrace    = flag.Int("max-trace-records", service.DefaultMaxTraceRecords, "ceiling on per-request pipeline trace records")
		maxCtx      = flag.Int("max-contexts", service.DefaultMaxContexts, "ceiling on per-request SMT hardware contexts")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
		storeDir    = flag.String("store", "", "directory for the crash-safe artifact store (empty = in-memory only)")
		storeBudget = flag.Int64("store-budget", 0, "artifact store disk budget in bytes (0 = unbounded)")
		gw          = flag.Bool("gateway", false, "run as a fleet gateway over -backends instead of a single daemon")
		backends    = flag.String("backends", "", "comma-separated backend base URLs for -gateway mode")
		hedgeAfter  = flag.Duration("hedge-after", gateway.DefaultHedgeAfter, "gateway: hedge to a second replica after this budget (negative disables)")
		retries     = flag.Int("retries", gateway.DefaultRetries, "gateway: extra dispatch attempts per job (negative disables)")
		reqTimeout  = flag.Duration("request-timeout", gateway.DefaultRequestTimeout, "gateway: per-attempt backend deadline")
		healthEvery = flag.Duration("health-interval", gateway.DefaultHealthInterval, "gateway: active health-check period")
		verbose     = flag.Bool("v", false, "log individual requests")
	)
	flag.Parse()

	// The service logs each request at Debug; -v surfaces them. Server
	// errors log at Warn and are visible either way.
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, Budget: *storeBudget})
		if err != nil {
			logger.Error("open artifact store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		logger.Info("artifact store open", "dir", *storeDir, "entries", st.Len())
	}

	svc := service.New(service.Config{
		Workers:         *workers,
		MaxConcurrent:   *concurrent,
		MaxQueue:        *queue,
		CacheCapacity:   *cache,
		MaxInsts:        *maxInsts,
		MaxScale:        *maxScale,
		MaxJobs:         *maxJobs,
		TraceRing:       *traceRing,
		MaxTraceRecords: *maxTrace,
		MaxContexts:     *maxCtx,
		Store:           st,
		Logger:          logger,
	})

	var handler http.Handler = svc
	var gwy *gateway.Gateway
	if *gw {
		list := strings.Split(*backends, ",")
		urls := list[:0]
		for _, u := range list {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		gwy, err = gateway.New(gateway.Config{
			Backends:       urls,
			Local:          svc,
			HedgeAfter:     *hedgeAfter,
			Retries:        *retries,
			RequestTimeout: *reqTimeout,
			HealthInterval: *healthEvery,
			MaxJobs:        *maxJobs,
			TraceRing:      *traceRing,
			Logger:         logger,
		})
		if err != nil {
			logger.Error("gateway", "err", err)
			os.Exit(1)
		}
		gwy.Start(context.Background())
		defer gwy.Close()
		handler = gwy
	}

	// ReadTimeout bounds the whole request read: the service buffers each
	// body before taking an execution slot, so a slow upload times out
	// here instead of starving admission. WriteTimeout stays unset —
	// legitimately queued requests can wait longer than any fixed write
	// deadline; abandoned clients free their queue slot via the request
	// context instead.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr, "workers", svc.Engine().Workers(),
			"queue", *queue, "cache_binaries", *cache, "gateway", *gw)
		errCh <- hs.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// Listener failed before any signal (port in use, ...).
		logger.Error("listen", "err", err)
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "timeout", drain.String())
	}

	// Flip /healthz to "draining" first: a gateway's health checker
	// ejects this daemon from rotation before the listener closes, so
	// in-flight fleet traffic fails over instead of 503ing.
	svc.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	hits, misses := svc.Engine().Cache().Stats()
	logger.Info("drained cleanly", "compiles", svc.Engine().Cache().Compiles(),
		"fills", misses, "cache_hits", hits,
		"evictions", svc.Engine().Cache().Evictions())
}
