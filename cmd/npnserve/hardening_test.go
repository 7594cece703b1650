package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/federation"
	"repro/internal/replica"
	"repro/internal/tt"
	"repro/pkg/client"
)

// startHardenedServer is startServer for tests that need several
// differently-credentialed clients: it returns the base URL instead of
// one anonymous client.
func startHardenedServer(t *testing.T, cfg config) (string, *federation.Registry) {
	t.Helper()
	reg, err := buildRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hopts, _, err := cfg.handlerOptions(reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(federation.NewHandlerOpts(reg, hopts))
	t.Cleanup(srv.Close)
	return srv.URL, reg
}

// TestHardenedEdgeEndToEnd is the acceptance scenario for the guarded
// edge, driven through the real flag-configured stack: an abusive key
// exhausts its quota and sees 429 + Retry-After with the stable
// rate_limited code, an in-quota key keeps being served with a bounded
// p99 (read from the server's own latency histogram), anonymous traffic
// is refused with the stable unauthorized code, both codes are published
// by GET /v2/spec, both counters appear on /metrics, and the exempt
// routes answer throughout.
func TestHardenedEdgeEndToEnd(t *testing.T) {
	ctx := context.Background()
	url, _ := startHardenedServer(t, config{
		arities: "4-6", shards: 4, workers: 2, cache: 64, metrics: true,
		keyInline: "abuser:abk:1:2,trusted:tk:1000:100",
	})

	// Anonymous traffic: stable 401 on the API, exempt routes still open.
	anon := client.New(url, client.WithRetries(0))
	_, err := anon.Classify(ctx, []string{"e8"})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeUnauthorized {
		t.Fatalf("anonymous classify: %v, want unauthorized api.Error", err)
	}
	if status, _, err := anon.Healthz(ctx); err != nil || status != http.StatusOK {
		t.Fatalf("anonymous /healthz: %d, %v", status, err)
	}
	if _, err := anon.Metrics(ctx); err != nil {
		t.Fatalf("anonymous /metrics: %v", err)
	}

	// The wire contract is discoverable: both codes are in the spec.
	trusted := client.New(url, client.WithAPIKey("tk"))
	spec, err := trusted.Spec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(map[string]bool)
	for _, ec := range spec.ErrorCodes {
		codes[ec] = true
	}
	if !codes[string(api.CodeUnauthorized)] || !codes[string(api.CodeRateLimited)] {
		t.Fatalf("spec error codes missing the edge codes: %v", spec.ErrorCodes)
	}

	// The abuser spends its burst of 2, then hits the limiter.
	abuser := client.New(url, client.WithAPIKey("abk"), client.WithRetries(0))
	limited := false
	for i := 0; i < 4; i++ {
		_, err := abuser.Classify(ctx, []string{"e8"})
		if e, ok := err.(*api.Error); ok && e.Code == api.CodeRateLimited {
			limited = true
			break
		}
		if err != nil {
			t.Fatalf("abuser request %d: %v", i, err)
		}
	}
	if !limited {
		t.Fatal("abuser was never rate limited within 4 requests at burst 2")
	}

	// Raw request for the header contract pkg/client does not surface:
	// the 429 names an integer Retry-After of at least one second.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/classify",
		strings.NewReader(`{"functions":["e8"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer abk")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained abuser: status %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil ||
		env.Error.Code != api.CodeRateLimited {
		t.Fatalf("429 body: %+v, %v", env.Error, err)
	}

	// The in-quota client is unaffected by its noisy neighbor.
	rng := rand.New(rand.NewSource(808))
	var hexes []string
	for n := 4; n <= 6; n++ {
		for k := 0; k < 4; k++ {
			hexes = append(hexes, tt.Random(n, rng).Hex())
		}
	}
	if _, err := trusted.Insert(ctx, hexes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := trusted.Classify(ctx, hexes[:4]); err != nil {
			t.Fatalf("trusted classify %d alongside throttled abuser: %v", i, err)
		}
	}

	// The server's own histogram bounds the in-quota experience, and the
	// edge counters account for what the guard refused.
	scrape, err := trusted.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p99 := scrape.Quantile("npn_http_request_duration_seconds", 0.99,
		"route=/v2/classify", "code=2xx"); p99 <= 0 || p99 > 1.0 {
		t.Fatalf("served p99 = %vs, want (0, 1s]", p99)
	}
	if v := scrape.Sum("npn_http_unauthorized_total"); v < 1 {
		t.Fatalf("npn_http_unauthorized_total = %v, want >= 1", v)
	}
	if v := scrape.Sum("npn_http_rate_limited_total"); v < 1 {
		t.Fatalf("npn_http_rate_limited_total = %v, want >= 1", v)
	}
}

// TestLoadSheddingEndToEnd: with -max-inflight 1, concurrent batches
// drive the live worker-pool depth past the limit and the surplus is
// refused with fast 429s — while /healthz keeps answering and the shed
// counter records every refusal.
func TestLoadSheddingEndToEnd(t *testing.T) {
	ctx := context.Background()
	url, _ := startHardenedServer(t, config{
		arities: "6", shards: 4, workers: 1, cache: -1, metrics: true,
		maxInflight: 1,
	})

	// Batches big enough that several are reliably mid-execution at once
	// even on a single-CPU runner — overlap, not speed, is what the test
	// needs.
	rng := rand.New(rand.NewSource(809))
	var hexes []string
	for i := 0; i < 2048; i++ {
		hexes = append(hexes, tt.Random(6, rng).Hex())
	}

	var (
		mu      sync.Mutex
		served  int
		shed    int
		badErrs []error
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(5 * time.Second)
	for shed == 0 && time.Now().Before(deadline) {
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := client.New(url, client.WithRetries(0))
				_, err := c.Classify(ctx, hexes)
				mu.Lock()
				defer mu.Unlock()
				switch e, ok := err.(*api.Error); {
				case err == nil:
					served++
				case ok && e.Code == api.CodeRateLimited:
					shed++
				default:
					badErrs = append(badErrs, err)
				}
			}()
		}
		wg.Wait()
	}
	if len(badErrs) > 0 {
		t.Fatalf("unexpected errors under overload: %v", badErrs)
	}
	if shed == 0 {
		t.Fatal("no request was shed at -max-inflight 1 under 8-way concurrency")
	}
	if served == 0 {
		t.Fatal("every request was shed: the limit must admit work, not close the server")
	}

	// The probe and the scrape survive the overload they report on.
	hc := client.New(url)
	if status, _, err := hc.Healthz(ctx); err != nil || status != http.StatusOK {
		t.Fatalf("/healthz during shedding: %d, %v", status, err)
	}
	scrape, err := hc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := scrape.Sum("npn_http_shed_total"); v != float64(shed) {
		t.Fatalf("npn_http_shed_total = %v, want %d", v, shed)
	}
	if !scrape.Has("npn_service_inflight_batches") {
		t.Fatal("npn_service_inflight_batches gauge not exported")
	}
}

// TestHardenedFollower: the guard mounts on the follower stack too — the
// same flags lock a replica's edge, with the same exemptions.
func TestHardenedFollower(t *testing.T) {
	ctx := context.Background()
	// WAL shipping needs a durable primary.
	pc, _ := startServer(t, config{arities: "4-6", shards: 4, cache: 16, dataDir: t.TempDir()})
	if _, err := pc.Insert(ctx, []string{"e8e8e8e8e8e8e8e8"}); err != nil {
		t.Fatal(err)
	}

	fcfg := config{arities: "4-6", shards: 4, cache: 16,
		follow: pc.Base(), followMode: "local", followInterval: time.Hour,
		metrics: true, keyInline: "reader:rk:100"}
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
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	anon := client.New(fsrv.URL, client.WithRetries(0))
	_, err = anon.Classify(ctx, []string{"e8e8e8e8e8e8e8e8"})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeUnauthorized {
		t.Fatalf("anonymous follower classify: %v, want unauthorized", err)
	}
	if status, _, err := anon.Healthz(ctx); err != nil || status != http.StatusOK {
		t.Fatalf("anonymous follower /healthz: %d, %v", status, err)
	}

	reader := client.New(fsrv.URL, client.WithAPIKey("rk"))
	cls, err := reader.Classify(ctx, []string{"e8e8e8e8e8e8e8e8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Results) != 1 || !cls.Results[0].Hit {
		t.Fatalf("keyed follower classify: %+v", cls.Results)
	}
}
