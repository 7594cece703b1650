package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/pkg/client"
)

// traceConfig is a metrics+trace flag configuration: every trace is
// retained (sample 1) unless the test overrides it.
func traceConfig(t *testing.T) config {
	cfg := metricsConfig(t)
	cfg.trace = true
	cfg.traceSample = 1
	return cfg
}

// spanNames flattens a span tree into the set of span names it contains.
func spanNames(n obs.SpanNode, into map[string]bool) {
	into[n.Name] = true
	for _, c := range n.Children {
		spanNames(c, into)
	}
}

// TestTraceProxiedInsertEndToEnd is the acceptance scenario: an insert
// through a proxy-mode follower leaves two retained traces under the one
// pinned X-Request-Id — the follower's (guard + primary hop) and the
// primary's (guard, queue, certify, store, WAL fsync), the latter rooted
// under the follower's hop span via X-Trace-Parent.
func TestTraceProxiedInsertEndToEnd(t *testing.T) {
	ctx := context.Background()
	pcfg := traceConfig(t)
	pcfg.anonRPS = 1000 // mount the guard so auth.guard spans exist
	pc, _ := startServer(t, pcfg)

	fcfg := config{arities: "4-6", shards: 4, cache: 16,
		follow: pc.Base(), followMode: "proxy", followInterval: time.Hour,
		metrics: true, slowRequest: time.Minute,
		trace: true, traceSample: 1, anonRPS: 1000}
	fol, err := buildFollower(fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	fopts, _, err := fcfg.handlerOptions(fol.Registry())
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(replica.NewHandlerOpts(fol, fopts))
	t.Cleanup(fsrv.Close)
	fc := client.New(fsrv.URL)

	// The client stamps the context's request ID onto the wire, the
	// follower's middleware honors it, and the proxy hop forwards it — one
	// ID names the request on both processes.
	const reqID = "trace-e2e-1"
	ictx := obs.ContextWithRequestID(ctx, reqID)
	if _, err := fc.Insert(ictx, []string{"1ee1"}); err != nil {
		t.Fatal(err)
	}

	// Follower side: a fresh root whose tree crosses into the proxy hop.
	fd, err := fc.Trace(ctx, reqID)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Route != "/v2/insert" || fd.Status != 200 {
		t.Fatalf("follower trace summary %+v", fd.TraceSummary)
	}
	if fd.Remote != "" {
		t.Fatalf("follower trace remote = %q, want a fresh root", fd.Remote)
	}
	fspans := map[string]bool{}
	spanNames(fd.Root, fspans)
	for _, want := range []string{"auth.guard", "replica.primary_hop"} {
		if !fspans[want] {
			t.Errorf("follower trace has no %s span (got %v)", want, fspans)
		}
	}

	// Primary side: the same request ID, rooted under the follower's hop
	// span, with the full pipeline visible down to the WAL fsync.
	pd, err := pc.Trace(ctx, reqID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pd.Remote, reqID+"/") {
		t.Fatalf("primary trace remote = %q, want %s/<span>", pd.Remote, reqID)
	}
	pspans := map[string]bool{}
	spanNames(pd.Root, pspans)
	for _, want := range []string{"auth.guard", "federation.route",
		"service.batch", "service.queue", "service.certify",
		"store.add", "store.certify", "wal.append", "wal.fsync"} {
		if !pspans[want] {
			t.Errorf("primary trace has no %s span (got %v)", want, pspans)
		}
	}

	// Both recorders report the retention through their counters.
	sc, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("npn_trace_retained_total"); !ok || v < 1 {
		t.Errorf("npn_trace_retained_total = %v (ok=%v), want >= 1", v, ok)
	}
}

// TestTraceErrorAlwaysRetained pins the tail-sampling contract at sample
// zero: a failing request is always in the flight recorder, a fast
// successful one never is.
func TestTraceErrorAlwaysRetained(t *testing.T) {
	ctx := context.Background()
	cfg := traceConfig(t)
	cfg.traceSample = 0
	c, _ := startServer(t, cfg)

	okCtx := obs.ContextWithRequestID(ctx, "sampled-out")
	if _, err := c.Insert(okCtx, []string{"1ee1"}); err != nil {
		t.Fatal(err)
	}
	errCtx := obs.ContextWithRequestID(ctx, "kept-error")
	status, _, err := c.Post(errCtx, "/v2/classify", "application/json", []byte("{not json"))
	if err != nil || status != 400 {
		t.Fatalf("bad body: status %d, err %v", status, err)
	}

	d, err := c.Trace(ctx, "kept-error")
	if err != nil {
		t.Fatalf("error trace not retained at sample 0: %v", err)
	}
	if d.Reason != "error" || d.Status != 400 {
		t.Fatalf("error trace reason=%q status=%d, want error/400", d.Reason, d.Status)
	}

	if _, err := c.Trace(ctx, "sampled-out"); err == nil {
		t.Fatal("fast successful trace retained at sample 0")
	} else if e, ok := err.(*api.Error); !ok || e.Code != api.CodeNotFound {
		t.Fatalf("miss error = %v, want not_found", err)
	}

	// The listing honors its filters over the retained set.
	l, err := c.Traces(ctx, client.TraceQuery{Route: "/v2/classify"})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Traces) != 1 || l.Traces[0].ID != "kept-error" {
		t.Fatalf("route-filtered listing = %+v", l.Traces)
	}
	if l, err = c.Traces(ctx, client.TraceQuery{Route: "/v2/insert"}); err != nil || len(l.Traces) != 0 {
		t.Fatalf("listing for an unretained route = %+v, %v", l, err)
	}
}

// TestTraceDebugRoutesAuthenticatedAndListed: on a keyed edge the
// flight-recorder routes demand credentials like any API route — trace
// details name client identities — but skip rate limiting, so an
// authorized operator reads them through exactly the overload being
// debugged. Both are listed in /v2/spec.
func TestTraceDebugRoutesAuthenticatedAndListed(t *testing.T) {
	ctx := context.Background()
	cfg := traceConfig(t)
	cfg.keyInline = "ci:sekrit:1:1" // burst-1 quota: one API call, then 429
	c, _ := startServer(t, cfg)     // keyless client

	if _, err := c.Classify(ctx, []string{"1ee1"}); err == nil {
		t.Fatal("keyless classify served on a keyed server")
	}
	if _, err := c.Traces(ctx, client.TraceQuery{}); err == nil {
		t.Fatal("keyless /v2/debug/traces served on a keyed server")
	} else if e, ok := err.(*api.Error); !ok || e.Code != api.CodeUnauthorized {
		t.Fatalf("keyless trace read = %v, want unauthorized", err)
	}

	kc := client.New(c.Base(), client.WithAPIKey("sekrit"))
	// Repeated reads through a burst-1 quota: authenticated trace reads
	// are never rate-limited and spend no tokens.
	for i := 0; i < 3; i++ {
		if _, err := kc.Traces(ctx, client.TraceQuery{}); err != nil {
			t.Fatalf("keyed trace read %d refused: %v", i, err)
		}
	}
	spec, err := kc.Spec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mounted := map[string]bool{}
	for _, rt := range spec.Routes {
		mounted[rt.Method+" "+rt.Pattern] = true
	}
	for _, want := range []string{"GET /v2/debug/traces", "GET /v2/debug/traces/{id}"} {
		if !mounted[want] {
			t.Fatalf("spec is missing %q", want)
		}
	}
}

// TestTraceOffMountsNothing: without -trace the debug routes do not
// exist and requests pay no tracing cost.
func TestTraceOffMountsNothing(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, metricsConfig(t))
	if _, err := c.Traces(ctx, client.TraceQuery{}); err == nil {
		t.Fatal("GET /v2/debug/traces served without -trace")
	} else if e, ok := err.(*api.Error); !ok || e.Code != api.CodeNotFound {
		t.Fatalf("want not_found, got %v", err)
	}
}
