package replica

import (
	"context"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/tt"
)

// NewHandlerOpts returns the follower's versioned API, mounted on the
// shared api.Router. It speaks the same wire format as the primary's
// federated handler, with the follower's read/write role distinction
// threaded through every route:
//
//	POST /v2/classify  served from the local replicated stores; in proxy
//	                   mode, misses are re-asked of the primary through
//	                   pkg/client and the answers merged (a fresh class
//	                   the tail loop has not applied yet still hits).
//	                   Primary unreachable: local answers stand — reads
//	                   never fail over a dead primary.
//	POST /v2/insert    proxy mode: forwarded to the primary
//	                   (primary_unreachable/502 when it is gone); local
//	                   mode: read_only/403 — the follower is read-only.
//	POST /v2/map       mapped locally; ?insert=true forwards the LUT
//	                   classes in proxy mode and is read_only in local.
//	POST /v2/compact   read_only/403 always; compaction is the primary's.
//	GET  /v2/spec      routes + error codes.
//	GET  /healthz      role and primary; 503 with status "stale" when
//	                   the staleness gate (Options.StaleAfter) is
//	                   tripped, so load balancers drain a follower that
//	                   lost its primary.
//
// Classify and insert speak the JSON envelope and the binary frame, as
// on the primary. The observability surface is mounted exactly as on
// the primary (federation.HandlerOptions.Mount); with Metrics set, GET
// /metrics also carries the replication lag/sync/proxy series, the
// follower's one read-out of its counters.
func NewHandlerOpts(f *Follower, o federation.HandlerOptions) http.Handler {
	rt := api.NewRouter("follower")
	reg := f.Registry()
	o.Mount(rt, reg)
	if o.Metrics != nil {
		f.RegisterMetrics(o.Metrics)
	}
	b := replicaBackend{Backend: federation.NewBackend(reg), f: f}
	jsonBody := api.MaxBodyBytes(reg.MaxVars())

	rt.Handle("POST", "/v2/classify", "local lookup with per-item errors, proxy-merged misses",
		api.HandleClassify(b, jsonBody))
	rt.Handle("POST", "/v2/insert", "insert forwarded to the primary (read_only in local mode)",
		api.HandleInsert(b, jsonBody))
	// A local-mode follower mounts no map-insert backend at all, so
	// ?insert=true is refused before any mapping work; in proxy mode k is
	// checked against the follower's own range, as /v2/insert checks each
	// function, and the discovered classes are forwarded to the primary.
	var mapInsert api.Backend
	if f.Mode() == ModeProxy {
		mapInsert = b
	}
	rt.Handle("POST", "/v2/map", "map an ASCII-AIGER circuit to k-LUTs",
		api.HandleMap(api.MapConfig{MaxBody: o.MaxBody, Insert: mapInsert}))
	rt.Handle("POST", "/v2/compact", "refused on a follower",
		func(w http.ResponseWriter, r *http.Request) {
			api.WriteError(w, r, api.Errf(api.CodeReadOnly,
				"follower holds no write-ahead log; compact on the primary %s", f.Primary()))
		})
	rt.Handle("GET", "/healthz", "role, primary, staleness gate",
		func(w http.ResponseWriter, r *http.Request) {
			body := map[string]any{
				"status":   "ok",
				"role":     "follower",
				"primary":  f.Primary(),
				"mode":     f.Mode().String(),
				"min_vars": reg.MinVars(),
				"max_vars": reg.MaxVars(),
				"active":   reg.Active(),
			}
			if f.Stale() {
				body["status"] = "stale"
				api.WriteJSON(w, http.StatusServiceUnavailable, body)
				return
			}
			api.WriteJSON(w, http.StatusOK, body)
		})
	rt.MountSpec()
	return rt
}

// replicaBackend adapts the follower to the shared /v2 handlers: the
// arity check and local lookups are the federated backend's over the
// replicated registry; misses may be re-asked of the primary, and writes
// go through it.
type replicaBackend struct {
	federation.Backend
	f *Follower
}

// Classify answers from the replicated stores; in proxy mode the misses
// are re-asked of the primary and merged, and a proxy failure leaves the
// local misses standing — the graceful degradation that keeps a follower
// serving when its primary is gone.
func (b replicaBackend) Classify(ctx context.Context, fs []*tt.TT) ([]api.Result, *api.Error) {
	out, e := b.Backend.Classify(ctx, fs)
	if e != nil {
		return nil, e
	}
	if b.f.Mode() == ModeProxy {
		b.f.proxyMisses(ctx, fs, out)
	}
	return out, nil
}

// Insert forwards the batch to the primary in proxy mode and refuses it
// in local mode.
func (b replicaBackend) Insert(ctx context.Context, fs []*tt.TT) ([]api.InsertOutcome, *api.Error) {
	if b.f.Mode() != ModeProxy {
		return nil, api.Errf(api.CodeReadOnly,
			"follower is read-only (mode local); insert on the primary %s", b.f.Primary())
	}
	hexes := make([]string, len(fs))
	for i, fn := range fs {
		hexes[i] = fn.Hex()
	}
	b.f.proxiedInserts.Add(1)
	hctx, sp := obs.StartSpan(ctx, "replica.primary_hop")
	sp.SetAttr("op", "insert")
	sp.SetInt("items", int64(len(hexes)))
	resp, err := b.f.api.Insert(hctx, hexes)
	sp.SetBool("ok", err == nil)
	sp.End()
	if err != nil {
		b.f.proxyErrors.Add(1)
		if e, ok := err.(*api.Error); ok {
			return nil, e // the primary's own refusal, relayed with its code
		}
		return nil, api.Errf(api.CodePrimaryUnreachable, "primary unreachable: %v", err)
	}
	if len(resp.Results) != len(fs) {
		b.f.proxyErrors.Add(1)
		return nil, api.Errf(api.CodeInternal,
			"primary answered %d results for %d inserts", len(resp.Results), len(fs))
	}
	out := make([]api.InsertOutcome, len(resp.Results))
	for i, it := range resp.Results {
		o := api.InsertOutcome{Index: it.Index, New: it.New, Err: it.Error}
		if key, perr := strconv.ParseUint(it.Class, 16, 64); perr == nil {
			o.Key = key
		}
		out[i] = o
	}
	return out, nil
}

// proxyMisses re-asks the primary about every miss in out and merges its
// hits back in place. When the answers are unusable (primary unreachable,
// response shape wrong, a malformed witness or representative from a
// foreign primary) the local misses stand — the graceful degradation that
// keeps a follower serving when its primary is gone. Failures are counted
// in ProxyErrors.
func (f *Follower) proxyMisses(ctx context.Context, fs []*tt.TT, out []api.Result) {
	var missIdx []int
	var missFns []string
	for i, r := range out {
		if !r.Hit {
			missIdx = append(missIdx, i)
			missFns = append(missFns, fs[i].Hex())
		}
	}
	if len(missFns) == 0 {
		return
	}
	f.proxiedClassifies.Add(int64(len(missFns)))
	hctx, sp := obs.StartSpan(ctx, "replica.primary_hop")
	sp.SetAttr("op", "classify")
	sp.SetInt("items", int64(len(missFns)))
	resp, err := f.api.Classify(hctx, missFns)
	sp.SetBool("ok", err == nil)
	sp.End()
	if err != nil {
		f.proxyErrors.Add(1)
		f.logf("replica: proxy classify: %v", err)
		return
	}
	if len(resp.Results) != len(missFns) {
		f.proxyErrors.Add(1)
		return
	}
	for j, i := range missIdx {
		it := resp.Results[j]
		if it.Error != nil || !it.Hit || it.Witness == nil || it.Index == nil {
			continue
		}
		key, kerr := strconv.ParseUint(it.Class, 16, 64)
		tr, terr := it.Witness.Transform()
		var rep *tt.TT
		if terr == nil {
			rep, terr = tt.FromHex(tr.N, it.Rep)
		}
		if kerr != nil || terr != nil {
			f.proxyErrors.Add(1)
			continue
		}
		out[i] = api.Result{Key: key, Index: *it.Index, Hit: true, Rep: rep, Witness: tr}
	}
}
