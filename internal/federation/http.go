package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tt"
)

// NewHandler returns the federated HTTP API over reg with the default
// /v2/map upload bound and no observability surface; see NewHandlerOpts.
func NewHandler(reg *Registry) http.Handler {
	return NewHandlerOpts(reg, HandlerOptions{})
}

// HandlerOptions configures the observability surface of a federated (or,
// via internal/replica, follower) handler.
type HandlerOptions struct {
	// MaxBody bounds /v2/map AIGER uploads in bytes; zero or negative
	// means api.DefaultMaxBody. The batch endpoints keep their
	// arity-derived bound.
	MaxBody int64
	// Metrics, when non-nil, mounts GET /metrics (Prometheus text
	// exposition) and registers the registry's collectors on it.
	Metrics *obs.Registry
	// HTTP, when non-nil, is installed as the router middleware: request
	// IDs, per-route latency histograms, the slow-request log.
	HTTP *obs.HTTPMetrics
	// Guard, when non-nil, is the admission-control middleware
	// (internal/auth): API-key authentication, per-client rate limiting
	// and load shedding. Mounted inside the obs middleware, so refused
	// requests are still traced and counted (as 4xx), and exempt routes
	// (/healthz, /metrics) keep answering through overload.
	Guard api.Middleware
	// Trace, when non-nil, is the flight recorder behind the HTTP
	// middleware's per-request traces (it must also be HTTP's
	// HTTPOptions.Tracer); mounting it adds GET /v2/debug/traces and
	// GET /v2/debug/traces/{id}. The guard authenticates both
	// (trace details name client identities) but never rate-limits or
	// sheds them (auth.DefaultAuthOnly).
	Trace *obs.Tracer
}

// Mount wires o's observability and admission control onto a router:
// middleware first (obs outermost so even guarded-away requests are
// traced, the guard inside it), then the /metrics route with reg's
// collectors and the flight-recorder routes. Both the federated and the
// follower handler mount through it, so they expose the identical
// metric, trace and admission surface.
func (o HandlerOptions) Mount(rt *api.Router, reg *Registry) {
	if o.HTTP != nil {
		rt.Use(o.HTTP.Wrap)
	}
	if o.Guard != nil {
		rt.Use(o.Guard)
	}
	if o.Metrics != nil {
		reg.RegisterMetrics(o.Metrics)
		rt.Handle("GET", "/metrics", "Prometheus metrics exposition", obs.Handler(o.Metrics))
	}
	if o.Trace != nil {
		rt.Handle("GET", "/v2/debug/traces",
			"flight recorder: retained request traces, newest first (?min_ms=&route=)",
			api.HandleTraces(o.Trace))
		rt.Handle("GET", "/v2/debug/traces/{id}",
			"flight recorder: one trace's span tree, by request ID",
			api.HandleTrace(o.Trace))
	}
}

// NewHandlerOpts returns the federated versioned API over reg, mounted
// on the shared api.Router (JSON 404/405 fallback, GET /v2/spec
// self-description). A batch may mix arities: each function's arity is
// inferred from its hex length (2^n/4 digits, unique per arity for
// n ≥ 2). A registry with a single arity is the single-arity server.
//
//	POST /v2/classify  mixed-arity batch lookup, per-item errors; JSON
//	                   or binary frame, negotiated per direction
//	POST /v2/insert    mixed-arity batch insert, per-item errors; same
//	                   transports
//	POST /v2/map       map an ASCII-AIGER circuit to k-LUTs;
//	                   ?insert=true warms the store with the discovered
//	                   LUT classes
//	POST /v2/compact   admin: fold sealed WAL segments (409 via code
//	                   not_durable on a memory-only registry)
//	GET  /v2/spec      routes + error codes
//	GET  /healthz      liveness + federated range
//
// plus the replication feed a durable registry serves to followers (all
// three answer 409 on a non-durable registry). Its /v1 prefix names the
// primary↔follower protocol, not an API version:
//
//	GET /v1/wal/segments             per-arity segment manifest
//	GET /v1/wal/snapshot/{arity}     the arity's base snapshot file
//	GET /v1/wal/segment/{arity}/{seq}?offset=N
//	                                 raw segment bytes from offset
//
// o.MaxBody bounds the /v2/map AIGER upload (npnserve's -max-body flag);
// the batch endpoints keep their arity-derived bound. With o.Metrics set
// the stack additionally serves GET /metrics (listed in /v2/spec like
// every route), and with o.HTTP set every route — the 404 fallback and
// /metrics itself included — is traced and measured by the obs
// middleware.
func NewHandlerOpts(reg *Registry, o HandlerOptions) http.Handler {
	rt := api.NewRouter("federated")
	o.Mount(rt, reg)
	b := NewBackend(reg)
	jsonBody := api.MaxBodyBytes(reg.MaxVars())

	rt.Handle("GET", "/v1/wal/segments", "replication: per-arity segment manifest", handleWALManifest(reg))
	rt.Handle("GET", "/v1/wal/snapshot/{arity}", "replication: base snapshot file", handleWALSnapshot(reg))
	rt.Handle("GET", "/v1/wal/segment/{arity}/{seq}", "replication: raw segment bytes from ?offset=", handleWALSegment(reg))

	rt.Handle("POST", "/v2/classify", "mixed-arity batch lookup with per-item errors", api.HandleClassify(b, jsonBody))
	rt.Handle("POST", "/v2/insert", "mixed-arity batch insert with per-item errors", api.HandleInsert(b, jsonBody))
	rt.Handle("POST", "/v2/map", "map an ASCII-AIGER circuit to k-LUTs; ?insert=true warms the store",
		api.HandleMap(api.MapConfig{MaxBody: o.MaxBody, Insert: b}))
	rt.Handle("POST", "/v2/compact", "fold every arity's sealed WAL segments into its snapshot",
		func(w http.ResponseWriter, r *http.Request) {
			results, err := reg.CompactAll()
			if errors.Is(err, ErrNotDurable) {
				api.WriteError(w, r, api.Errf(api.CodeNotDurable, "%v", err))
				return
			}
			if err != nil {
				api.WriteError(w, r, api.Errf(api.CodeInternal, "%v", err))
				return
			}
			api.WriteJSON(w, http.StatusOK, map[string]any{"arities": results})
		})
	rt.Handle("GET", "/healthz", "liveness + federated range",
		func(w http.ResponseWriter, r *http.Request) {
			api.WriteJSON(w, http.StatusOK, map[string]any{
				"status":   "ok",
				"min_vars": reg.MinVars(),
				"max_vars": reg.MaxVars(),
				"active":   reg.Active(),
			})
		})
	rt.MountSpec()
	return rt
}

// Backend adapts a registry to the shared /v2 handlers (api.Backend).
// internal/replica embeds it for the arity check and local lookups.
type Backend struct{ reg *Registry }

// NewBackend returns the api.Backend over reg.
func NewBackend(reg *Registry) Backend { return Backend{reg} }

// CheckArity reports whether n is a federated arity and constructs its
// service up front, so Classify/Insert cannot fail later. Both request
// transports and /v2/map?insert=true ask it, so an unserved arity gets
// one error object however it arrived.
func (b Backend) CheckArity(n int) *api.Error {
	if n < b.reg.MinVars() || n > b.reg.MaxVars() {
		return api.Errf(api.CodeArityOutOfRange,
			"function of arity %d matches no federated arity %d..%d",
			n, b.reg.MinVars(), b.reg.MaxVars()).
			WithDetail("want arity %d..%d: %s hex digits", b.reg.MinVars(), b.reg.MaxVars(), b.reg.arityLengths())
	}
	if _, err := b.reg.Service(n); err != nil {
		return api.Errf(api.CodeInternal, "%v", err)
	}
	return nil
}

// Classify looks the batch up in the registry's stores.
func (b Backend) Classify(ctx context.Context, fs []*tt.TT) ([]api.Result, *api.Error) {
	results, err := b.reg.ClassifyCtx(ctx, fs)
	if err != nil {
		return nil, api.Errf(api.CodeInternal, "%v", err)
	}
	return toAPIResults(results), nil
}

// Insert stores the batch in the registry.
func (b Backend) Insert(ctx context.Context, fs []*tt.TT) ([]api.InsertOutcome, *api.Error) {
	results, err := b.reg.InsertCtx(ctx, fs)
	if err != nil {
		return nil, api.Errf(api.CodeInternal, "%v", err)
	}
	return toAPIOutcomes(results), nil
}

// toAPIResults converts pipeline results to their wire-contract form.
func toAPIResults(rs []service.Result) []api.Result {
	out := make([]api.Result, len(rs))
	for i, r := range rs {
		out[i] = api.Result{Key: r.Key, Index: r.Index, Hit: r.Hit, Rep: r.Rep, Witness: r.Witness}
	}
	return out
}

// toAPIOutcomes converts pipeline insert results to their wire form.
func toAPIOutcomes(rs []service.InsertResult) []api.InsertOutcome {
	out := make([]api.InsertOutcome, len(rs))
	for i, r := range rs {
		out[i] = api.InsertOutcome{Key: r.Key, Index: r.Index, New: r.New}
	}
	return out
}

// arityLengths renders the accepted hex lengths, for error messages.
func (r *Registry) arityLengths() string {
	out := ""
	for n := r.lo; n <= r.hi; n++ {
		if n > r.lo {
			out += ","
		}
		out += fmt.Sprint(api.HexDigits(n))
	}
	return out
}
