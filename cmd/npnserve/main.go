// Command npnserve runs the federated NPN classification service: one
// sharded, concurrency-safe class store (internal/store) per arity in a
// configurable range, behind the mixed-arity batch HTTP/JSON API of
// internal/federation.
//
// Usage:
//
//	npnserve [-arities 4-10] [-addr :8080] [-shards 16] [-workers 0]
//	         [-cache 4096] [-config full] [-max-body N]
//	         [-data dir] [-fsync-interval 100ms] [-segment-bytes N]
//	         [-compact-every 0] [-follow URL] [-follow-mode proxy|local]
//	         [-follow-interval 200ms] [-stale-after 0]
//	         [-metrics] [-slow-request 500ms] [-pprof-addr addr]
//	         [-trace] [-trace-buffer 256] [-trace-sample 0.01]
//	         [-keys file] [-key name:secret[:rps[:burst]],...]
//	         [-anon-rps N] [-anon-burst N] [-max-inflight N]
//	         [-trusted-proxies CIDR[,CIDR]]
//
// Endpoints (the /v2 surface of internal/api; see GET /v2/spec for the
// machine-readable list and README for the full reference):
//
//	POST /v2/classify  {"functions":["<hex tt>", ...]} -> class keys, reps,
//	                   matcher-certified witnesses (read-only). Batches may
//	                   mix arities: each function's arity is inferred from
//	                   its hex length and routed to that arity's store. A
//	                   bad function fails only its own item: the response
//	                   carries per-item {"error":{"code",...}} objects.
//	POST /v2/insert    same body; absent classes are created. Both batch
//	                   endpoints also speak the length-framed binary
//	                   transport (docs/WIRE.md), negotiated per direction
//	                   by Content-Type and Accept; a batch holds at most
//	                   65536 functions, and pkg/client splits longer ones
//	POST /v2/map       ASCII-AIGER circuit body (+ ?k=6&mode=depth&cuts=8)
//	                   -> functionally-verified k-LUT mapping with its NPN
//	                   class census; ?insert=true warms the store with the
//	                   discovered LUT classes
//	POST /v2/compact   admin: fold sealed WAL segments into snapshots
//	GET  /v2/spec      self-description: routes + error codes
//	GET  /healthz      liveness + federated range
//	GET  /metrics      Prometheus text exposition (with -metrics, default):
//	                   every counter and gauge, per arity; the server's
//	                   one read-out of them
//
// Unmatched routes and methods answer the /v2 JSON error envelope. A
// durable server also serves the replication feed its followers tail
// (GET /v1/wal/...; the prefix names that internal protocol, not an API
// version). -max-body bounds /v2/map AIGER uploads in bytes.
//
// -arities accepts a single arity ("6") or an inclusive range ("4-10");
// per-arity stores are constructed lazily on first use. -config names
// the MSV key and accepts only "full", the paper's complete vector set;
// the store's cheap OCV1+OIV hint index needs no flag.
//
// With -data the server is durable: each arity keeps a write-ahead log
// plus snapshot under <data>/n<arity>/ (internal/wal), every certified
// new-class insert is logged before it is served, and a restart — clean
// or kill -9 — recovers every fsynced class. -fsync-interval bounds the
// crash-loss window (0 fsyncs every append), -segment-bytes sets the log
// rotation threshold, and -compact-every runs background compaction of
// the segments rotation has sealed (0 leaves compaction to POST
// /v2/compact).
//
// With -follow the server is a replication follower instead: a read-only
// replica that bootstraps from the primary's latest snapshot, tails its
// WAL segments over HTTP (internal/replica) and serves classify hits from
// the local replicated stores. -follow-mode picks what happens beyond
// them: "proxy" (default) forwards classify misses and every insert to
// the primary, "local" answers misses as misses and refuses inserts.
// -follow-interval is the tail poll period; -stale-after, when set, makes
// /healthz answer 503 once the last successful sync is older than the
// given duration (load-balancer draining), while classify keeps serving
// the replicated classes — a follower outlives its primary for reads.
// Followers are memory-only: -data is rejected.
//
// Observability (internal/obs, on by default): -metrics mounts GET
// /metrics with counters, gauges and latency histograms from every layer
// (service, store, WAL, federation, replication), installs the request
// middleware — every response carries an X-Request-Id (caller-supplied
// IDs are honored and echoed, and stamped into per-item batch errors) —
// and logs any request slower than -slow-request as a structured line
// keyed by that ID (0 disables the log). -metrics=false strips all of it.
// -pprof-addr serves net/http/pprof on a second, private listener (e.g.
// "localhost:6060"); it is opt-in and never shares the API address.
//
// Request tracing (with -metrics): -trace roots a span timeline under
// every request's X-Request-Id — per-stage spans through auth, the
// service pipeline, the store, the WAL and the replica proxy hop — and
// keeps a bounded flight recorder of -trace-buffer traces with
// tail-based sampling: error responses and requests slower than
// -slow-request are always retained, the rest at probability
// -trace-sample. Guard rejections (401/429) are the exception — an
// unauthenticated client mints those for free, so they only qualify
// as slow or sampled and can never flush the ring. Retained traces are served from GET /v2/debug/traces
// (newest first, ?min_ms= and ?route= filters) and
// GET /v2/debug/traces/{id} (the full span tree); on a keyed edge both
// require an API key like any route — trace details name client
// identities — but are never rate-limited or shed, so operators can
// read them mid-overload. A follower in proxy mode stamps
// X-Trace-Parent onto forwarded requests, so the primary's trace
// records which remote span fathered it.
//
// Untrusted-traffic hardening (internal/auth; see README "Hardening"):
// -keys/-key mount an API keyring — requests must then carry
// "Authorization: Bearer <secret>" and are rate-limited per key by the
// key's own rps/burst quota (401 unauthorized / 429 rate_limited with
// Retry-After otherwise). -anon-rps grants keyless requests a per-remote-
// IP rate instead of a flat 401. -max-inflight sheds load with fast 429s
// while that many batches are executing across the worker pools, keeping
// overload from becoming queueing collapse. /healthz and /metrics stay
// exempt so probes and scrapes survive exactly those events. With none of
// these flags the edge is wide open, as before. -trusted-proxies names
// the load balancers (comma-separated CIDRs or bare IPs) whose
// X-Forwarded-For the anonymous limiter may believe: only when the TCP
// peer is in the list does the rightmost non-trusted hop become the
// client identity, so an untrusted client can never spoof its way to a
// fresh rate bucket. SIGHUP re-reads -keys and swaps the keyring in
// place — keys rotate without dropping a connection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/internal/wal"
)

// config collects the flag-configurable server parameters.
type config struct {
	arities       string
	addr          string
	shards        int
	workers       int
	cache         int
	keyConfig     string
	maxBody       int64
	dataDir       string
	fsyncInterval time.Duration
	segmentBytes  int64
	compactEvery  time.Duration

	// Follower mode.
	follow         string
	followMode     string
	followInterval time.Duration
	staleAfter     time.Duration

	// Observability.
	metrics     bool
	slowRequest time.Duration
	pprofAddr   string
	trace       bool
	traceBuffer int
	traceSample float64

	// Untrusted-traffic hardening (internal/auth).
	keysFile       string
	keyInline      string
	anonRPS        float64
	anonBurst      int
	maxInflight    int64
	trustedProxies string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.arities, "arities", "4-10", "federated arity range, \"N\" or \"LO-HI\" inclusive")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.shards, "shards", store.DefaultShards, "per-arity store lock shards (rounded up to a power of two)")
	flag.IntVar(&cfg.workers, "workers", 0, "chunks per batch (0 = GOMAXPROCS), run by the request goroutine and GOMAXPROCS shared helpers")
	flag.IntVar(&cfg.cache, "cache", service.DefaultCacheSize, "per-arity LRU result cache capacity (negative disables)")
	flag.StringVar(&cfg.keyConfig, "config", "full", "MSV key configuration: only \"full\" (the paper's complete vector set)")
	flag.Int64Var(&cfg.maxBody, "max-body", api.DefaultMaxBody, "byte bound on /v2/map circuit uploads (0 or negative = the default)")
	flag.StringVar(&cfg.dataDir, "data", "", "durable data directory: per-arity WAL + snapshot under n<arity>/ (empty = memory only)")
	flag.DurationVar(&cfg.fsyncInterval, "fsync-interval", 100*time.Millisecond, "WAL group-fsync interval; 0 fsyncs every append (with -data)")
	flag.Int64Var(&cfg.segmentBytes, "segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold in bytes (with -data)")
	flag.DurationVar(&cfg.compactEvery, "compact-every", 0, "background WAL compaction period, folding what log rotation sealed; 0 disables (with -data)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only replication follower of this primary base URL")
	flag.StringVar(&cfg.followMode, "follow-mode", "proxy", "follower miss/insert handling: \"proxy\" (forward to primary) or \"local\" (serve misses, refuse inserts)")
	flag.DurationVar(&cfg.followInterval, "follow-interval", replica.DefaultInterval, "follower WAL tail poll period (with -follow)")
	flag.DurationVar(&cfg.staleAfter, "stale-after", 0, "follower staleness gate: /healthz answers 503 once the last sync is older than this; 0 disables (with -follow)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "serve GET /metrics (Prometheus text) and trace requests with X-Request-Id")
	flag.DurationVar(&cfg.slowRequest, "slow-request", 500*time.Millisecond, "log requests slower than this as structured slow-request lines; 0 disables (with -metrics)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate private address (e.g. localhost:6060); empty disables")
	flag.BoolVar(&cfg.trace, "trace", false, "record per-request span timelines into a flight recorder at GET /v2/debug/traces (with -metrics)")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", obs.DefaultTraceBuffer, "flight-recorder capacity in retained traces (with -trace)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0.01, "probability of retaining a fast, successful trace; errors and slow requests are always kept (with -trace)")
	flag.StringVar(&cfg.keysFile, "keys", "", "API key file: one name:secret[:rps[:burst]] per line (# comments); enables Bearer auth")
	flag.StringVar(&cfg.keyInline, "key", "", "inline API key spec(s), comma-separated name:secret[:rps[:burst]]; merged with -keys")
	flag.Float64Var(&cfg.anonRPS, "anon-rps", 0, "per-client (per remote IP) rate for requests without an API key; with keys configured, 0 rejects anonymous traffic (401); without keys, 0 disables anonymous limiting")
	flag.IntVar(&cfg.anonBurst, "anon-burst", 0, "anonymous token-bucket depth (0 derives from -anon-rps)")
	flag.Int64Var(&cfg.maxInflight, "max-inflight", 0, "shed load (429 + Retry-After) while this many batches are in flight across the worker pools; 0 disables")
	flag.StringVar(&cfg.trustedProxies, "trusted-proxies", "", "comma-separated CIDRs (or bare IPs) of load balancers whose X-Forwarded-For the anonymous limiter may believe")
	flag.Parse()

	logger := log.New(os.Stderr, "npnserve: ", log.LstdFlags)

	var (
		reg      *federation.Registry
		follower *replica.Follower
		handler  http.Handler
	)
	if cfg.follow != "" {
		f, err := buildFollower(cfg, logger)
		if err != nil {
			logger.Fatal(err)
		}
		follower, reg = f, f.Registry()
	} else {
		r, err := buildRegistry(cfg)
		if err != nil {
			logger.Fatal(err)
		}
		reg = r
	}
	// The handler options come after the registry: the load shedder reads
	// its live worker-pool depth.
	hopts, keyring, err := cfg.handlerOptions(reg)
	if err != nil {
		logger.Fatal(err)
	}
	if follower != nil {
		handler = replica.NewHandlerOpts(follower, hopts)
	} else {
		handler = federation.NewHandlerOpts(reg, hopts)
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// pprof lives on its own listener so profiling stays private even when
	// the API address is exposed; losing it never takes the API down.
	if cfg.pprofAddr != "" {
		go func() {
			logger.Printf("pprof on http://%s/debug/pprof/", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, pprofMux()); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if keyring != nil {
		go watchKeyringReload(ctx, keyring, cfg, logger)
	}

	if follower != nil {
		go follower.Run(ctx)
	}

	stopCompact := func() {}
	if reg.Durable() && cfg.compactEvery > 0 {
		stopCompact = reg.StartAutoCompact(cfg.compactEvery, func(err error) {
			logger.Printf("compact: %v", err)
		})
		logger.Printf("background compaction every %s", cfg.compactEvery)
	}

	errc := make(chan error, 1)
	go func() {
		mode := "memory-only"
		switch {
		case follower != nil:
			mode = fmt.Sprintf("follower of %s mode=%s poll=%s stale-after=%s",
				cfg.follow, follower.Mode(), cfg.followInterval, cfg.staleAfter)
		case reg.Durable():
			mode = fmt.Sprintf("durable data=%s fsync=%s segment=%dB", cfg.dataDir, cfg.fsyncInterval, cfg.segmentBytes)
		}
		logger.Printf("serving arities %d..%d on %s (shards=%d workers=%d cache=%d config=%s per arity; %s)",
			reg.MinVars(), reg.MaxVars(), cfg.addr, cfg.shards, cfg.workers, cfg.cache, cfg.keyConfig, mode)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests.
	logger.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
	}

	// Stop the compaction ticker before closing the writers it seals.
	stopCompact()
	if reg.Durable() {
		if err := reg.Close(); err != nil {
			logger.Printf("wal close: %v", err)
		} else {
			logger.Print("wal flushed and closed")
		}
	}
}

// handlerOptions assembles the observability and admission-control
// surface both server roles share: with -metrics a fresh obs registry
// (plus the Go runtime collectors) and the request middleware with the
// -slow-request threshold, and with any hardening flag (-keys, -key,
// -anon-rps, -max-inflight) the auth guard wired to reg's live
// worker-pool depth. The same options value feeds
// federation.NewHandlerOpts and replica.NewHandlerOpts, so primary and
// follower expose the identical metric and admission surface. It also
// returns the live keyring the guard authenticates against, so main can
// swap it in place on SIGHUP; the keyring is nil when no keys are
// configured.
func (c config) handlerOptions(reg *federation.Registry) (federation.HandlerOptions, *auth.Keyring, error) {
	o := federation.HandlerOptions{MaxBody: c.maxBody}
	if c.metrics {
		m := obs.NewRegistry()
		obs.RegisterRuntime(m)
		o.Metrics = m
		httpOpts := obs.HTTPOptions{SlowRequest: c.slowRequest}
		if c.trace {
			t := obs.NewTracer(m, obs.TraceOptions{
				Buffer: c.traceBuffer,
				Sample: c.traceSample,
				Slow:   c.slowRequest,
			})
			o.Trace = t
			httpOpts.Tracer = t
		}
		o.HTTP = obs.NewHTTPMetrics(m, httpOpts)
	}
	guard, kr, err := c.buildGuard(reg, o.Metrics)
	if err != nil {
		return o, nil, err
	}
	if guard != nil {
		o.Guard = guard.Wrap
	}
	return o, kr, nil
}

// watchKeyringReload swaps the guard's keyring in place on SIGHUP by
// re-reading the -keys file (and re-parsing -key): key rotation without
// dropping a connection. A reload that fails to parse keeps the
// previous keyring serving — a bad edit never locks every caller out.
func watchKeyringReload(ctx context.Context, kr *auth.Keyring, cfg config, logger *log.Logger) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			if err := reloadKeyring(kr, cfg); err != nil {
				logger.Printf("keyring reload: %v (previous keyring stays active)", err)
				continue
			}
			logger.Printf("keyring reloaded (%d keys)", kr.Len())
		}
	}
}

// reloadKeyring re-reads the key flags into a fresh keyring and swaps
// it into kr. An empty result is refused: deleting the key file must
// not silently turn authentication off.
func reloadKeyring(kr *auth.Keyring, cfg config) error {
	next, err := auth.LoadKeyring(cfg.keysFile, cfg.keyInline)
	if err != nil {
		return err
	}
	if next == nil || next.Len() == 0 {
		return errors.New("reload produced an empty keyring")
	}
	kr.Swap(next)
	return nil
}

// buildGuard constructs the admission-control middleware from the
// hardening flags, or returns nil when none is set — an unguarded server
// behaves exactly as before.
func (c config) buildGuard(reg *federation.Registry, m *obs.Registry) (*auth.Guard, *auth.Keyring, error) {
	kr, err := auth.LoadKeyring(c.keysFile, c.keyInline)
	if err != nil {
		return nil, nil, err
	}
	if c.anonRPS < 0 {
		return nil, nil, fmt.Errorf("-anon-rps %v: must be >= 0", c.anonRPS)
	}
	proxies, err := auth.ParseProxyList(c.trustedProxies)
	if err != nil {
		return nil, nil, fmt.Errorf("-trusted-proxies: %w", err)
	}
	if kr == nil && c.anonRPS == 0 && c.maxInflight <= 0 {
		return nil, nil, nil
	}
	opts := auth.Options{
		Keys:           kr,
		AnonRPS:        c.anonRPS,
		AnonBurst:      c.anonBurst,
		Metrics:        m,
		TrustedProxies: proxies,
	}
	if c.maxInflight > 0 {
		limit := c.maxInflight
		opts.Pressure = func() (int64, int64) { return reg.InflightBatches(), limit }
	}
	return auth.NewGuard(opts), kr, nil
}

// pprofMux mounts the net/http/pprof handlers on a private mux — the
// package's init-time registration on DefaultServeMux is deliberately not
// used, so nothing pprof-shaped can ever leak onto the API listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseArities parses the -arities value: "6" or "4-10", both inclusive.
func parseArities(s string) (lo, hi int, err error) {
	part := strings.SplitN(s, "-", 2)
	lo, err = strconv.Atoi(strings.TrimSpace(part[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("-arities %q: %w", s, err)
	}
	hi = lo
	if len(part) == 2 {
		hi, err = strconv.Atoi(strings.TrimSpace(part[1]))
		if err != nil {
			return 0, 0, fmt.Errorf("-arities %q: %w", s, err)
		}
	}
	if lo < federation.MinFederatedArity || hi > tt.MaxVars || lo > hi {
		return 0, 0, fmt.Errorf("-arities %q: range must satisfy %d <= lo <= hi <= %d",
			s, federation.MinFederatedArity, tt.MaxVars)
	}
	return lo, hi, nil
}

// parseKeyConfig maps the -config value to an MSV configuration: the
// zero core.Config means the store's default full vector set, the only
// one served.
func parseKeyConfig(s string) (core.Config, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "full":
		return core.Config{}, nil
	}
	return core.Config{}, fmt.Errorf("-config %q: want \"full\"", s)
}

// buildRegistry wires the federated registry from the flag configuration.
// It is the unit the end-to-end tests exercise against httptest.
func buildRegistry(cfg config) (*federation.Registry, error) {
	lo, hi, err := parseArities(cfg.arities)
	if err != nil {
		return nil, err
	}
	keyCfg, err := parseKeyConfig(cfg.keyConfig)
	if err != nil {
		return nil, err
	}
	return federation.New(lo, hi, federation.Options{
		Store:   store.Options{Shards: cfg.shards, Config: keyCfg},
		Service: service.Options{Workers: cfg.workers, CacheSize: cfg.cache},
		Data:    cfg.dataDir,
		WAL:     wal.Options{SegmentBytes: cfg.segmentBytes, FsyncEvery: cfg.fsyncInterval},
	})
}

// buildFollower wires the replication-follower stack from the flag
// configuration: a memory-only registry plus the tail loop against the
// -follow primary, the only writer of its stores. Followers hold no WAL
// of their own (they re-sync from the primary on restart), so -data is
// rejected.
func buildFollower(cfg config, logger *log.Logger) (*replica.Follower, error) {
	if cfg.dataDir != "" {
		return nil, errors.New("-follow runs a memory-only replica: remove -data")
	}
	lo, hi, err := parseArities(cfg.arities)
	if err != nil {
		return nil, err
	}
	keyCfg, err := parseKeyConfig(cfg.keyConfig)
	if err != nil {
		return nil, err
	}
	mode, err := replica.ParseMode(cfg.followMode)
	if err != nil {
		return nil, fmt.Errorf("-follow-mode: %w", err)
	}
	reg, err := federation.New(lo, hi, federation.Options{
		Store:   store.Options{Shards: cfg.shards, Config: keyCfg},
		Service: service.Options{Workers: cfg.workers, CacheSize: cfg.cache},
	})
	if err != nil {
		return nil, err
	}
	var logf func(string, ...any)
	if logger != nil {
		logf = logger.Printf
	}
	return replica.New(reg, replica.Options{
		Primary:    strings.TrimRight(cfg.follow, "/"),
		Interval:   cfg.followInterval,
		Mode:       mode,
		StaleAfter: cfg.staleAfter,
		Logf:       logf,
	}), nil
}
