package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/tt"
	"repro/internal/wal"
	"repro/pkg/client"
)

// metricsConfig is the durable, metrics-on flag configuration the
// observability end-to-end tests run against.
func metricsConfig(t *testing.T) config {
	return config{arities: "4-6", shards: 4, cache: 16,
		dataDir: t.TempDir(), segmentBytes: 1 << 12,
		metrics: true, slowRequest: time.Minute}
}

// TestMetricsEndToEnd drives real traffic through the flag-configured
// durable stack and scrapes GET /metrics via the typed client helper: the
// exposition must span every layer (service, store, WAL, federation, HTTP,
// runtime) with at least 20 distinct series, and the per-route request
// counter and latency histogram _count must equal the exact number of
// requests the test sent.
func TestMetricsEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, metricsConfig(t))

	rng := rand.New(rand.NewSource(705))
	var hexes []string
	for n := 4; n <= 6; n++ {
		for k := 0; k < 2; k++ {
			hexes = append(hexes, tt.Random(n, rng).Hex())
		}
	}
	if _, err := c.Insert(ctx, hexes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Classify(ctx, hexes); err != nil {
			t.Fatal(err)
		}
	}

	sc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Inventory: at least 20 distinct series names, covering every layer.
	names := sc.Names()
	if len(names) < 20 {
		t.Fatalf("exposition carries %d series names, want >= 20: %v", len(names), names)
	}
	for _, prefix := range []string{
		"npn_service_", "npn_store_", "npn_wal_",
		"npn_federation_", "npn_http_", "npn_go_",
	} {
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series in the exposition (names: %v)", prefix, names)
		}
	}

	// Per-route traffic accounting: the histogram's _count agrees with
	// the exact number of requests sent.
	for route, want := range map[string]float64{"/v2/insert": 1, "/v2/classify": 2} {
		labels := []string{"route=" + route, "method=POST", "code=2xx"}
		if got, ok := sc.Value("npn_http_request_duration_seconds_count", labels...); !ok || got != want {
			t.Errorf("duration histogram _count{%s} = %v (ok=%v), want %v", route, got, ok, want)
		}
	}

	// Layer spot checks against known traffic: each arity saw 2 inserted
	// functions looked up twice, durably journaled.
	for n := 4; n <= 6; n++ {
		a := "arity=" + strconv.Itoa(n)
		if got, ok := sc.Value("npn_service_lookups_total", a); !ok || got != 4 {
			t.Errorf("npn_service_lookups_total{%s} = %v (ok=%v), want 4", a, got, ok)
		}
		if got, ok := sc.Value("npn_wal_records_total", a); !ok || got < 1 {
			t.Errorf("npn_wal_records_total{%s} = %v (ok=%v), want >= 1", a, got, ok)
		}
	}
	if sc.Sum("npn_wal_bytes") <= 0 {
		t.Error("npn_wal_bytes is zero on a durable registry that journaled inserts")
	}
	if got, ok := sc.Value("npn_federation_durable"); !ok || got != 1 {
		t.Errorf("npn_federation_durable = %v (ok=%v), want 1", got, ok)
	}
	if got, ok := sc.Value("npn_service_batch_size_count", "op=classify"); !ok || got != 2 {
		t.Errorf("npn_service_batch_size_count{op=classify} per-arity share = %v (ok=%v), want 2", got, ok)
	}

	// The /metrics route is a first-class citizen of the self-description.
	spec, err := c.Spec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rt := range spec.Routes {
		if rt.Method == "GET" && rt.Pattern == "/metrics" {
			found = true
		}
	}
	if !found {
		t.Errorf("/v2/spec does not list GET /metrics: %v", spec.Routes)
	}
}

// TestRequestIDEndToEnd exercises the tracing contract over the wire: a
// caller-supplied X-Request-Id is echoed on the response and stamped into
// per-item batch errors, and an absent one is minted as 16 hex digits.
func TestRequestIDEndToEnd(t *testing.T) {
	c, _ := startServer(t, metricsConfig(t))

	body := []byte(`{"functions":["zzzz","1ee1"]}`)
	req, err := http.NewRequest(http.MethodPost, c.Base()+"/v2/classify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "e2e-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "e2e-req-42" {
		t.Fatalf("response %s = %q, want the caller-supplied id", obs.RequestIDHeader, got)
	}
	var cls api.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cls); err != nil {
		t.Fatal(err)
	}
	if cls.Results[0].Error == nil || cls.Results[0].Error.RequestID != "e2e-req-42" {
		t.Fatalf("per-item error does not carry the request id: %+v", cls.Results[0].Error)
	}
	if cls.Results[1].Error != nil {
		t.Fatalf("good item failed: %+v", cls.Results[1].Error)
	}

	// No caller ID: one is minted, 16 hex digits.
	resp2, err := http.Get(c.Base() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id := resp2.Header.Get(obs.RequestIDHeader); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("minted request id %q is not 16 hex digits", id)
	}
}

// TestErrorEnvelopesCarryRequestID: every whole-request error envelope —
// whichever layer wrote it — carries the request ID its X-Request-Id
// header echoes, both for a caller-supplied ID and for a minted one.
func TestErrorEnvelopesCarryRequestID(t *testing.T) {
	c, _ := startServer(t, config{arities: "4-6", shards: 4, cache: 16, metrics: true})
	var aag strings.Builder
	if err := aig.WriteAAG(&aag, gen.RippleCarryAdder(2)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, method, path, contentType, body string
		want                                  api.Code
	}{
		{"malformed JSON", "POST", "/v2/classify", "application/json", "{", api.CodeBadRequest},
		{"empty batch", "POST", "/v2/insert", "application/json", `{"functions":[]}`, api.CodeBadRequest},
		{"bad binary frame", "POST", "/v2/classify", api.BinaryContentType, "NB\x01", api.CodeBadRequest},
		{"wrong content type", "POST", "/v2/classify", "text/csv", "1ee1", api.CodeUnsupportedMediaType},
		{"no route", "GET", "/no/such/route", "", "", api.CodeNotFound},
		{"wrong method", "GET", "/v2/classify", "", "", api.CodeMethodNotAllowed},
		{"compact without -data", "POST", "/v2/compact", "", "", api.CodeNotDurable},
		{"map insert of an unserved k", "POST", "/v2/map?k=3&insert=true", "text/plain", aag.String(), api.CodeArityOutOfRange},
		{"map of a non-AIGER body", "POST", "/v2/map?k=4", "text/plain", "not a circuit", api.CodeBadCircuit},
	}
	for _, tc := range cases {
		for _, callerID := range []string{"", "probe-1"} {
			req, err := http.NewRequest(tc.method, c.Base()+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			if callerID != "" {
				req.Header.Set(obs.RequestIDHeader, callerID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			header := resp.Header.Get(obs.RequestIDHeader)
			if err != nil || env.Error == nil || env.Error.Code != tc.want {
				t.Errorf("%s (caller id %q): %d %+v, want a %s envelope", tc.name, callerID, resp.StatusCode, env.Error, tc.want)
				continue
			}
			if header == "" || (callerID != "" && header != callerID) || env.Error.RequestID != header {
				t.Errorf("%s (caller id %q): envelope request_id %q, header %q", tc.name, callerID, env.Error.RequestID, header)
			}
		}
	}
}

// TestStatsMetricsParity is the one-source-of-truth check: /metrics is
// read at scrape time from the layers' own counters, so after arbitrary
// traffic every exported series must equal the in-process value it is
// collected from — each service's Stats(), its store's shape, and the
// segment files on disk for npn_wal_bytes.
func TestStatsMetricsParity(t *testing.T) {
	ctx := context.Background()
	c, reg := startServer(t, metricsConfig(t))

	rng := rand.New(rand.NewSource(706))
	var hexes []string
	for n := 4; n <= 6; n++ {
		for k := 0; k < 3; k++ {
			hexes = append(hexes, tt.Random(n, rng).Hex())
		}
	}
	if _, err := c.Insert(ctx, hexes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Classify(ctx, hexes[:4]); err != nil {
		t.Fatal(err)
	}

	sc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	active := reg.Active()
	if got, ok := sc.Value("npn_federation_active_arities"); !ok || got != float64(len(active)) {
		t.Errorf("active arities: metrics %v (ok=%v), registry %d", got, ok, len(active))
	}
	for _, n := range active {
		svc, err := reg.Service(n)
		if err != nil {
			t.Fatal(err)
		}
		st := svc.Stats()
		chains, maxLen := svc.Store().ChainStats()
		segs, err := wal.ListSegments(reg.ArityDir(n))
		if err != nil {
			t.Fatal(err)
		}
		var walBytes int64
		for _, seg := range segs {
			walBytes += seg.Size
		}
		a := "arity=" + strconv.Itoa(n)
		for name, want := range map[string]float64{
			"npn_service_lookups_total":            float64(st.Lookups),
			"npn_service_inserts_total":            float64(st.Inserts),
			"npn_service_hits_total":               float64(st.Hits),
			"npn_service_classes_created_total":    float64(st.Created),
			"npn_store_classes":                    float64(svc.Store().Size()),
			"npn_store_collisions":                 float64(svc.Store().Size() - chains),
			"npn_store_chains":                     float64(chains),
			"npn_store_chain_max_length":           float64(maxLen),
			"npn_store_profile_cache_misses_total": float64(st.ProfileMisses),
			"npn_wal_bytes":                        float64(walBytes),
		} {
			if got, ok := sc.Value(name, a); !ok || got != want {
				t.Errorf("%s{%s} = %v (ok=%v), in-process value %v", name, a, got, ok, want)
			}
		}
	}
}

// TestFollowerLagGauges is the replication-lag observability contract:
// after a catch-up sync the lag gauges read zero, the moment the primary
// accepts new inserts a lag refresh turns them nonzero, and the next sync
// returns them to zero — all observed through the follower's /metrics.
func TestFollowerLagGauges(t *testing.T) {
	ctx := context.Background()
	pc, _ := startServer(t, metricsConfig(t))

	rng := rand.New(rand.NewSource(707))
	insert := func(count int) {
		t.Helper()
		var hexes []string
		for n := 4; n <= 6; n++ {
			for k := 0; k < count; k++ {
				hexes = append(hexes, tt.Random(n, rng).Hex())
			}
		}
		if _, err := pc.Insert(ctx, hexes); err != nil {
			t.Fatal(err)
		}
	}
	insert(3)

	fcfg := config{arities: "4-6", shards: 4, cache: 16,
		follow: pc.Base(), followMode: "local", followInterval: time.Hour,
		metrics: true}
	fol, err := buildFollower(fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fopts, _, err := fcfg.handlerOptions(fol.Registry())
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(replica.NewHandlerOpts(fol, fopts))
	t.Cleanup(fsrv.Close)
	fc := client.New(fsrv.URL)

	scrapeLag := func() (segments, bytes float64, sc *obs.Scrape) {
		t.Helper()
		sc, err := fc.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Sum("npn_replica_lag_segments"), sc.Sum("npn_replica_lag_bytes"), sc
	}

	// Caught up: every arity's lag gauge exists and reads zero. The
	// first pass reports the backlog it bootstrapped; a second pass finds
	// nothing new.
	for range 2 {
		if err := fol.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	segs, bts, sc := scrapeLag()
	if segs != 0 || bts != 0 {
		t.Fatalf("lag after catch-up = (%v segments, %v bytes), want zero", segs, bts)
	}
	for n := 4; n <= 6; n++ {
		a := "arity=" + strconv.Itoa(n)
		if !sc.Has("npn_replica_lag_bytes", a) {
			t.Errorf("no npn_replica_lag_bytes{%s} series after bootstrap", a)
		}
	}
	if got, ok := sc.Value("npn_replica_syncs_total"); !ok || got < 1 {
		t.Errorf("npn_replica_syncs_total = %v (ok=%v), want >= 1", got, ok)
	}
	if got, ok := sc.Value("npn_replica_stale"); !ok || got != 0 {
		t.Errorf("npn_replica_stale = %v (ok=%v), want 0", got, ok)
	}

	// The primary moves ahead: the pass that applies its new records
	// reports them as nonzero lag.
	insert(4)
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, bts, _ := scrapeLag(); bts <= 0 {
		t.Fatalf("lag bytes after primary inserts = %v, want > 0", bts)
	}

	// The next pass finds nothing new and the gauges return to zero.
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if segs, bts, _ := scrapeLag(); segs != 0 || bts != 0 {
		t.Fatalf("lag after re-sync = (%v segments, %v bytes), want zero", segs, bts)
	}
}

// TestMetricsOffByConfig: with the metrics flag off the stack mounts no
// /metrics route and stamps no request IDs — the observability surface is
// strippable.
func TestMetricsOffByConfig(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, config{arities: "4-6", shards: 4, cache: 16})

	if _, err := c.Metrics(ctx); err == nil {
		t.Fatal("GET /metrics served without -metrics")
	} else if e, ok := err.(*api.Error); !ok || e.Code != api.CodeNotFound {
		t.Fatalf("metrics-off error = %v, want not_found", err)
	}
	resp, err := http.Get(c.Base() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(obs.RequestIDHeader); id != "" {
		t.Fatalf("request id %q stamped without -metrics", id)
	}
}

// TestSlowRequestCounter: a threshold lower than any real request turns
// every request into a slow one — the counter and the route label must
// reflect it.
func TestSlowRequestCounter(t *testing.T) {
	ctx := context.Background()
	cfg := metricsConfig(t)
	cfg.slowRequest = time.Nanosecond
	c, _ := startServer(t, cfg)

	if _, err := c.Classify(ctx, []string{"1ee1"}); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sc.Value("npn_http_slow_requests_total", "route=/v2/classify"); !ok || got != 1 {
		t.Fatalf("npn_http_slow_requests_total{route=/v2/classify} = %v (ok=%v), want 1", got, ok)
	}
}
