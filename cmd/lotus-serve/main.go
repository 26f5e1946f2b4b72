// Command lotus-serve runs the resident triangle-counting service:
// an HTTP/JSON server that builds or loads graphs once, keeps
// preprocessed LOTUS structures in a size-bounded cache, and answers
// count queries through the engine registry with per-request
// timeouts, admission control and graceful shutdown.
//
// Usage:
//
//	lotus-serve -addr :8090 -cache-bytes 1073741824
//	lotus-serve -smoke          # boot, self-query, verify, exit
//
// Endpoints (all JSON): GET /livez, GET /readyz, GET /healthz,
// GET /metrics, GET /v1/algorithms, POST /v1/count, POST /v1/topk,
// POST /v1/estimate, POST /v1/stream, GET|DELETE /v1/stream/{id},
// POST /v1/stream/{id}/edges, and GET|POST /debug/faults behind
// -debug-faults. With -data-dir, stream sessions persist across
// restarts (snapshot + WAL). See README.md for request schemas.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"lotustc/internal/engine"
	"lotustc/internal/faults"
	"lotustc/internal/obs"
	"lotustc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8090", "listen address")
		cacheBytes = fs.Int64("cache-bytes", 1<<30, "graph + LOTUS structure cache budget in bytes")
		compCache  = fs.Bool("compress-cache", false, "demote cold cached graphs to varint-compressed payloads instead of evicting; misses decompress on demand into pooled arenas")
		demoteWM   = fs.Float64("demote-watermark", 0, "with -compress-cache, fraction of -cache-bytes kept for decoded graphs; the rest budgets the compressed tier (0 = 0.5)")
		maxStruct  = fs.Int64("max-structure-bytes", 0, "single-structure budget; larger lotus counts route through per-shard structures (0 = cache-bytes, or the decoded tier with -compress-cache)")
		maxConc    = fs.Int("max-concurrent", 4, "counting requests admitted at once")
		maxQueue   = fs.Int("max-queue", 64, "requests allowed to wait for admission before 429")
		defTimeout = fs.Duration("default-timeout", 60*time.Second, "per-request timeout when the request names none")
		maxTimeout = fs.Duration("max-timeout", 10*time.Minute, "upper clamp on requested timeouts")
		workers    = fs.Int("workers", 0, "worker threads per count (0 = GOMAXPROCS)")
		maxStream  = fs.Int64("max-stream-bytes", 256<<20, "per-session resident byte budget for /v1/stream sessions")
		streamMode = fs.String("stream-mode-default", "exact", "stream session mode when the request names none: exact, approx or auto")
		dataDir    = fs.String("data-dir", "", "directory for crash-safe stream-session durability (WAL + snapshots); empty = memory-only sessions")
		walSync    = fs.String("wal-sync", "always", "WAL fsync policy: always (fsync per batch) or none (leave flushing to the OS)")
		snapBytes  = fs.Int64("snapshot-bytes", 1<<20, "live-WAL size that triggers a session snapshot + WAL rotation")
		faultSpec  = fs.String("faults", "", "arm fault points at boot, e.g. \"wal.fsync:error:p=0.5;serve.build:latency:d=50ms\"")
		debugFault = fs.Bool("debug-faults", false, "mount /debug/faults for runtime fault injection (never in production)")
		allowFiles = fs.Bool("allow-files", false, "permit {\"type\":\"file\"} graph specs (filesystem access)")
		defAlgo    = fs.String("default-algorithm", "auto", "algorithm for count requests that name none; \"auto\" probes each graph and routes to the fastest")
		pprofAddr  = fs.String("pprof", "", "also start the expvar/pprof debug server on this address")
		drainWait  = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		smoke      = fs.Bool("smoke", false, "self-test: boot on a loopback port, query an R-MAT graph, verify, exit")
		smokeScale = fs.Uint("smoke-scale", 12, "R-MAT scale for -smoke")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *streamMode {
	case "exact", "approx", "auto":
	default:
		fmt.Fprintf(stderr, "lotus-serve: -stream-mode-default %q: must be exact, approx or auto\n", *streamMode)
		return 2
	}
	switch *walSync {
	case "always", "none":
	default:
		fmt.Fprintf(stderr, "lotus-serve: -wal-sync %q: must be always or none\n", *walSync)
		return 2
	}
	if _, err := engine.Lookup(*defAlgo); err != nil {
		fmt.Fprintf(stderr, "lotus-serve: -default-algorithm: %v\n", err)
		return 2
	}
	if *faultSpec != "" {
		if err := faults.Configure(*faultSpec); err != nil {
			fmt.Fprintf(stderr, "lotus-serve: -faults: %v\n", err)
			return 2
		}
	}

	if *demoteWM < 0 || *demoteWM >= 1 {
		fmt.Fprintf(stderr, "lotus-serve: -demote-watermark %g: must be in [0, 1)\n", *demoteWM)
		return 2
	}
	cfg := serve.Config{
		CacheBytes:        *cacheBytes,
		CompressCache:     *compCache,
		DemoteWatermark:   *demoteWM,
		MaxStructureBytes: *maxStruct,
		MaxConcurrent:     *maxConc,
		MaxQueue:          *maxQueue,
		DefaultTimeout:    *defTimeout,
		MaxTimeout:        *maxTimeout,
		Workers:           *workers,
		AllowFiles:        *allowFiles,
		MaxStreamBytes:    *maxStream,
		DefaultStreamMode: *streamMode,
		DataDir:           *dataDir,
		WALSync:           *walSync,
		SnapshotBytes:     *snapBytes,
		DebugFaults:       *debugFault,
		DefaultAlgorithm:  *defAlgo,
	}

	if *smoke {
		return runSmoke(cfg, *smokeScale, stdout, stderr)
	}

	if *pprofAddr != "" {
		got, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lotus-serve: pprof server: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "lotus-serve: debug server on %s\n", got)
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "lotus-serve: listen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "lotus-serve: serving on %s\n", ln.Addr())

	// Recovery replays persisted sessions concurrently with serving:
	// /livez answers immediately while /readyz and the session
	// endpoints stay 503 "recovering" until the replay finishes.
	go func() {
		srv.Recover()
		if *dataDir != "" {
			fmt.Fprintf(stdout, "lotus-serve: session recovery done (%d restored)\n",
				srv.Metrics().Get("stream.wal_recovered"))
		}
	}()

	// Graceful shutdown: on SIGINT/SIGTERM flip /healthz to draining
	// (load balancers stop routing), then let in-flight requests
	// finish under the drain budget before the listener dies.
	idle := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(stdout, "lotus-serve: %v received, draining for up to %v\n", s, *drainWait)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "lotus-serve: shutdown: %v\n", err)
		}
		// After the listener drains: cancel detached builds and flush a
		// final snapshot per session, so restart replays a fresh
		// snapshot instead of a long WAL tail.
		srv.Close()
		close(idle)
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "lotus-serve: serve: %v\n", err)
		return 1
	}
	<-idle
	fmt.Fprintln(stdout, "lotus-serve: drained, bye")
	return 0
}

// runSmoke boots the service on a loopback port, counts a scale-N
// R-MAT graph once cold and five times warm, and verifies both the
// answer (200, nonzero triangles, every query agrees) and the cache
// (every warm query is a result hit, and their median is at least 10x
// faster than the cold one). It is the `make serve-smoke`
// target and doubles as a deployment sanity check.
func runSmoke(cfg serve.Config, scale uint, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "lotus-serve: SMOKE FAIL: "+format+"\n", args...)
		return 1
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	body := fmt.Sprintf(`{"graph": {"type": "rmat", "scale": %d, "edge_factor": 16, "seed": 7}}`, scale)
	query := func() (*serve.CountResponse, time.Duration, error) {
		start := time.Now()
		resp, err := http.Post(base+"/v1/count", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		var cr serve.CountResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			return nil, 0, fmt.Errorf("bad response JSON: %v", err)
		}
		return &cr, time.Since(start), nil
	}

	first, coldT, err := query()
	if err != nil {
		return fail("cold query: %v", err)
	}
	if first.Triangles == 0 {
		return fail("cold query returned zero triangles for rmat scale %d", scale)
	}
	// The warm time is the median of five result-cache hits, so one
	// hit that a busy host delays cannot fail the speedup check.
	warmTs := make([]time.Duration, 5)
	for i := range warmTs {
		warm, d, err := query()
		if err != nil {
			return fail("warm query: %v", err)
		}
		if warm.Triangles != first.Triangles {
			return fail("count changed between queries: %d then %d", first.Triangles, warm.Triangles)
		}
		if !warm.Cache.Result {
			return fail("identical query %d was not a result-cache hit", i+2)
		}
		warmTs[i] = d
	}
	slices.Sort(warmTs)
	warmT := warmTs[len(warmTs)/2]
	if warmT*10 > coldT {
		return fail("warm query %v not 10x faster than cold %v", warmT, coldT)
	}
	met := srv.Metrics()
	if hits := met.Get("result.hits"); hits < 1 {
		return fail("/metrics result.hits = %d, want >= 1", hits)
	}
	fmt.Fprintf(stdout,
		"lotus-serve: SMOKE OK: rmat scale %d -> %d triangles (cold %v, warm %v, %.0fx)\n",
		scale, first.Triangles, coldT, warmT, float64(coldT)/float64(warmT))
	return 0
}
