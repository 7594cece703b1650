package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/npn"
	"repro/internal/replica"
	"repro/internal/tt"
	"repro/pkg/client"
)

// startServer builds the flag-configured registry and serves it over a
// real TCP listener via httptest — the full stack a client sees — and
// returns the official client pointed at it. pkg/client is the only HTTP
// client these end-to-end tests use.
func startServer(t *testing.T, cfg config) (*client.Client, *federation.Registry) {
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
	return client.New(srv.URL), reg
}

// TestEndToEndMixedArity drives the acceptance scenario through
// pkg/client: a single batch of truth tables spanning every arity
// n = 4..10 is inserted into one server, then a single mixed-arity batch
// of NPN variants is classified; every answer must carry the right class
// key and a witness the matcher semantics certify (replayed locally by
// client.ReplayWitness), and the per-arity counters on /metrics must
// account for exactly the routed traffic.
func TestEndToEndMixedArity(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, config{arities: "4-10", shards: 8, workers: 2, cache: 128, metrics: true})

	rng := rand.New(rand.NewSource(700))
	var base []*tt.TT
	var hexes []string
	for n := 4; n <= 10; n++ {
		for k := 0; k < 2; k++ {
			f := tt.Random(n, rng)
			base = append(base, f)
			hexes = append(hexes, f.Hex())
		}
	}
	// Interleave arities so routing has to scatter-gather, not just split.
	rng.Shuffle(len(base), func(i, j int) {
		base[i], base[j] = base[j], base[i]
		hexes[i], hexes[j] = hexes[j], hexes[i]
	})

	ins, err := c.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 {
		t.Fatalf("insert reported %d item errors", ins.Errors)
	}
	classOf := make(map[int]string)
	for i, r := range ins.Results {
		if r.Function != hexes[i] {
			t.Fatalf("insert result %d echoes %q, want %q", i, r.Function, hexes[i])
		}
		classOf[i] = fmt.Sprintf("%s:%d", r.Class, r.Index)
	}

	variants := make([]string, len(base))
	for i, f := range base {
		variants[i] = randomTransformed(rng, f).Hex()
	}
	cls, err := c.Classify(ctx, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		n := base[i].NumVars()
		if !r.Hit {
			t.Fatalf("variant %d (n=%d) missed its class", i, n)
		}
		if got := fmt.Sprintf("%s:%d", r.Class, *r.Index); got != classOf[i] {
			t.Fatalf("variant %d classified as %s, inserted as %s", i, got, classOf[i])
		}
		if err := client.ReplayWitness(r); err != nil {
			t.Fatalf("variant %d (n=%d): %v", i, n, err)
		}
	}

	// The counters must reflect the routed traffic, per arity and in
	// total.
	sc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sc.Value("npn_federation_active_arities"); !ok || got != 7 {
		t.Fatalf("npn_federation_active_arities = %v (ok=%v), want 7", got, ok)
	}
	if ins, hits := sc.Sum("npn_service_inserts_total"), sc.Sum("npn_service_hits_total"); ins != float64(len(base)) || hits != float64(len(base)) {
		t.Fatalf("totals: %v inserts and %v hits, want %d each", ins, hits, len(base))
	}
	for n := 4; n <= 10; n++ {
		a := "arity=" + strconv.Itoa(n)
		ins, _ := sc.Value("npn_service_inserts_total", a)
		lookups, _ := sc.Value("npn_service_lookups_total", a)
		if ins != 2 || lookups != 2 {
			t.Fatalf("arity %d saw %v inserts and %v lookups, want 2 and 2", n, ins, lookups)
		}
	}

	// Liveness.
	status, _, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
}

// randomTransformed applies a random NPN transform to f.
func randomTransformed(rng *rand.Rand, f *tt.TT) *tt.TT {
	return npn.RandomTransform(f.NumVars(), rng).Apply(f)
}

// TestPerItemErrors: one bad truth table fails only its own item on /v2,
// and the error codes are the stable taxonomy.
func TestPerItemErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, config{arities: "4-6", shards: 4, cache: 16})

	good := "cafef00dcafef00d" // n=6
	cls, err := c.Classify(ctx, []string{good, "zzzz", "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Errors != 2 {
		t.Fatalf("errors = %d, want 2", cls.Errors)
	}
	if cls.Results[0].Error != nil {
		t.Fatalf("good item failed: %+v", cls.Results[0].Error)
	}
	if cls.Results[1].Error == nil || cls.Results[1].Error.Code != api.CodeBadHex {
		t.Fatalf("bad hex item: %+v", cls.Results[1].Error)
	}
	if cls.Results[2].Error == nil || cls.Results[2].Error.Code != api.CodeArityOutOfRange {
		t.Fatalf("bad arity item: %+v", cls.Results[2].Error)
	}

	ins, err := c.Insert(ctx, []string{"zz", good})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 1 || ins.Results[0].Error == nil || ins.Results[1].Error != nil || !ins.Results[1].New {
		t.Fatalf("insert per-item errors: %+v", ins.Results)
	}
}

// TestJSONFallbacks: unmatched routes and wrong methods answer the /v2
// JSON error envelope (with Allow on 405) on every stack.
func TestJSONFallbacks(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, config{arities: "4-6", shards: 4, cache: 16})

	status, raw, err := c.Get(ctx, "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	if status != http.StatusNotFound || json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != api.CodeNotFound {
		t.Fatalf("404 fallback: %d %s", status, raw)
	}

	status, raw, err = c.Get(ctx, "/v2/classify") // GET on a POST route
	if err != nil {
		t.Fatal(err)
	}
	env = api.ErrorEnvelope{}
	if status != http.StatusMethodNotAllowed || json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("405 fallback: %d %s", status, raw)
	}

	// Wrong content type on a POST: unsupported_media_type, not a decode
	// error.
	status, raw, err = c.Post(ctx, "/v2/classify", "text/csv", []byte(`{"functions":["1ee1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	env = api.ErrorEnvelope{}
	if status != http.StatusUnsupportedMediaType || json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != api.CodeUnsupportedMediaType {
		t.Fatalf("415 gate: %d %s", status, raw)
	}
}

// TestSpecCoversRoutes: GET /v2/spec lists every mounted route — proved
// by asking for each one and never hitting the not_found fallback — and
// the headline endpoints are all present. The primary and the follower
// mount one API: the primary's spec is the follower's plus the three
// replication-feed routes, no other /v1 route is listed, and the removed
// /v1 classify, insert, compact and stats routes and the removed
// /v2/stats, /v2/classify/stream and /v2/insert/stream routes answer
// not_found on both stacks.
func TestSpecCoversRoutes(t *testing.T) {
	ctx := context.Background()
	cfg := config{arities: "4-6", shards: 4, cache: 16, metrics: true}
	c, _ := startServer(t, cfg)

	spec, err := c.Spec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if spec.APIVersion != api.Version || spec.Role != "federated" {
		t.Fatalf("spec header %+v", spec)
	}
	want := []string{
		"POST /v2/classify", "POST /v2/insert",
		"POST /v2/map", "POST /v2/compact", "GET /v2/spec",
		"GET /healthz", "GET /metrics",
	}
	mounted := routeSet(spec)
	for _, w := range want {
		if !mounted[w] {
			t.Fatalf("spec is missing %q (routes: %v)", w, spec.Routes)
		}
	}
	if len(spec.ErrorCodes) == 0 {
		t.Fatal("spec lists no error codes")
	}

	// Every spec route must be live: asking with the right method must
	// never reach the not_found or method_not_allowed fallback.
	for _, rt := range spec.Routes {
		path := strings.NewReplacer("{arity}", "5", "{seq}", "1").Replace(rt.Pattern)
		var status int
		var err error
		switch rt.Method {
		case http.MethodGet:
			status, _, err = c.Get(ctx, path)
		case http.MethodPost:
			status, _, err = c.Post(ctx, path, "application/json", nil)
		default:
			t.Fatalf("unexpected method %q in spec", rt.Method)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", rt.Method, path, err)
		}
		if status == http.StatusNotFound || status == http.StatusMethodNotAllowed {
			t.Fatalf("%s %s answered %d: spec lists a route the mux does not serve", rt.Method, path, status)
		}
	}

	fcfg := cfg
	fcfg.follow, fcfg.followMode = c.Base(), "local"
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
	fspec, err := fc.Spec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fspec.Role != "follower" {
		t.Fatalf("follower spec role %q", fspec.Role)
	}
	feed := map[string]bool{
		"GET /v1/wal/segments": true, "GET /v1/wal/snapshot/{arity}": true, "GET /v1/wal/segment/{arity}/{seq}": true,
	}
	followerPlusFeed := routeSet(fspec)
	for r := range feed {
		if followerPlusFeed[r] {
			t.Fatalf("follower serves the replication feed route %q", r)
		}
		followerPlusFeed[r] = true
	}
	if !reflect.DeepEqual(mounted, followerPlusFeed) {
		t.Fatalf("primary routes %v, want the follower's plus the replication feed: %v", mounted, followerPlusFeed)
	}
	for r := range mounted {
		if strings.Contains(r, " /v1/") && !feed[r] {
			t.Fatalf("spec lists %q: /v1 is only the replication feed", r)
		}
	}

	for name, cl := range map[string]*client.Client{"primary": c, "follower": fc} {
		for _, path := range []string{"/v1/classify", "/v1/insert", "/v1/compact", "/v1/stats", "/v2/stats", "/v2/classify/stream", "/v2/insert/stream"} {
			var status int
			var raw []byte
			var err error
			if strings.HasSuffix(path, "/stats") {
				status, raw, err = cl.Get(ctx, path)
			} else {
				status, raw, err = cl.Post(ctx, path, "application/json", []byte(`{"functions":["1ee1"]}`))
			}
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorEnvelope
			if status != http.StatusNotFound || json.Unmarshal(raw, &env) != nil || env.Error == nil || env.Error.Code != api.CodeNotFound {
				t.Fatalf("%s: %s answered %d %s, want 404 not_found", name, path, status, raw)
			}
		}
	}
}

// routeSet renders a spec's routes as "METHOD pattern" keys.
func routeSet(s *api.Spec) map[string]bool {
	out := make(map[string]bool, len(s.Routes))
	for _, rt := range s.Routes {
		out[rt.Method+" "+rt.Pattern] = true
	}
	return out
}

// TestMapEndpoint uploads a real circuit through the client and checks
// the verified mapping plus the census, and that insert=true warms the
// classifier: the LUT functions must then classify as hits.
func TestMapEndpoint(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t, config{arities: "2-10", shards: 4, cache: 16})

	var aag strings.Builder
	if err := aig.WriteAAG(&aag, gen.RippleCarryAdder(8)); err != nil {
		t.Fatal(err)
	}

	res, err := c.Map(ctx, strings.NewReader(aag.String()), client.MapParams{K: 4, Mode: "depth", Insert: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.VerifyMethod != "sampled" && res.VerifyMethod != "exhaustive" {
		t.Fatalf("mapping not verified: %+v", res)
	}
	if res.Area != len(res.LUTs) || res.Area == 0 || res.Depth == 0 {
		t.Fatalf("mapping shape: area=%d depth=%d luts=%d", res.Area, res.Depth, len(res.LUTs))
	}
	census := 0
	for _, row := range res.Classes {
		census += row.Count
	}
	if census != res.Area {
		t.Fatalf("census counts %d LUTs, area is %d", census, res.Area)
	}
	if res.Inserted == nil || res.Inserted.ClassesCreated == 0 || res.Inserted.Errors != 0 {
		t.Fatalf("insert summary %+v", res.Inserted)
	}

	// The discovered classes really are in the store now: the K-padded
	// LUT functions classify as hits.
	var fns []string
	for _, l := range res.LUTs {
		f, err := tt.FromHex(l.Vars, l.Function)
		if err != nil {
			t.Fatal(err)
		}
		if f.NumVars() < res.K {
			f = f.Extend(res.K)
		}
		fns = append(fns, f.Hex())
	}
	cls, err := c.Classify(ctx, fns)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("mapped LUT %d not warmed into the classifier", i)
		}
	}

	// Parameter validation speaks the taxonomy.
	_, err = c.Map(ctx, strings.NewReader(aag.String()), client.MapParams{K: 40})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeArityOutOfRange {
		t.Fatalf("k=40 error: %v", err)
	}
	_, err = c.Map(ctx, strings.NewReader("not an aag"), client.MapParams{})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeBadCircuit {
		t.Fatalf("bad circuit error: %v", err)
	}
}

// TestParseArities covers the -arities forms and rejections.
func TestParseArities(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi int
	}{
		{"6", 6, 6},
		{"4-10", 4, 10},
		{" 2 - 16 ", 2, 16},
	} {
		lo, hi, err := parseArities(tc.in)
		if err != nil || lo != tc.lo || hi != tc.hi {
			t.Fatalf("parseArities(%q) = (%d,%d,%v), want (%d,%d)", tc.in, lo, hi, err, tc.lo, tc.hi)
		}
	}
	for _, bad := range []string{"", "x", "1-6", "4-17", "10-4", "4-10-12"} {
		if _, _, err := parseArities(bad); err == nil {
			t.Fatalf("parseArities(%q) accepted", bad)
		}
	}
}

// TestBuildRegistryValidation rejects a malformed arity range.
func TestBuildRegistryValidation(t *testing.T) {
	if _, err := buildRegistry(config{arities: ""}); err == nil {
		t.Fatal("empty -arities accepted")
	}
	if _, err := buildRegistry(config{arities: fmt.Sprintf("4-%d", tt.MaxVars+1)}); err == nil {
		t.Fatal("oversized arity accepted")
	}
}

// TestFollowerFlagValidation: follower mode is memory-only and validates
// its own flags.
func TestFollowerFlagValidation(t *testing.T) {
	if _, err := buildFollower(config{arities: "4-6", follow: "http://x", dataDir: "/tmp/x"}, nil); err == nil {
		t.Fatal("-follow with -data accepted")
	}
	if _, err := buildFollower(config{arities: "4-6", follow: "http://x", followMode: "mirror"}, nil); err == nil {
		t.Fatal("bogus -follow-mode accepted")
	}
	f, err := buildFollower(config{arities: "4-6", follow: "http://x/", followMode: "local"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Primary() != "http://x" || f.Mode() != replica.ModeLocal {
		t.Fatalf("follower wired as (%q, %v)", f.Primary(), f.Mode())
	}
}

// TestFollowerServerEndToEnd boots the flag-configured primary and
// follower stacks: inserts land on the primary over HTTP, one sync later
// the follower serves them locally with the same identity, and the
// follower's healthz reports its role.
func TestFollowerServerEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pcfg := config{arities: "4-6", shards: 4, cache: 16, dataDir: dir, segmentBytes: 1 << 12}
	pc, _ := startServer(t, pcfg)

	rng := rand.New(rand.NewSource(704))
	var hexes []string
	for n := 4; n <= 6; n++ {
		for k := 0; k < 3; k++ {
			hexes = append(hexes, tt.Random(n, rng).Hex())
		}
	}
	ins, err := pc.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}

	fol, err := buildFollower(config{arities: "4-6", shards: 4, cache: 16,
		follow: pc.Base(), followMode: "local", followInterval: 50 * time.Millisecond,
		staleAfter: time.Minute}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(replica.NewHandlerOpts(fol, federation.HandlerOptions{}))
	t.Cleanup(fsrv.Close)
	fc := client.New(fsrv.URL)

	cls, err := fc.Classify(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit || r.Class != ins.Results[i].Class || *r.Index != ins.Results[i].Index {
			t.Fatalf("follower result %d = %+v, primary inserted (%s,%d)", i, r, ins.Results[i].Class, ins.Results[i].Index)
		}
	}

	status, hraw, err := fc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal(hraw, &health); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || health.Role != "follower" || health.Status != "ok" {
		t.Fatalf("follower healthz %d %+v", status, health)
	}
}

// TestParseKeyConfig covers the -config values and rejection.
func TestParseKeyConfig(t *testing.T) {
	for _, v := range []string{"full", " Full ", ""} {
		if c, err := parseKeyConfig(v); err != nil || c != (core.Config{}) {
			t.Fatalf("%q -> %+v, %v", v, c, err)
		}
	}
	for _, v := range []string{"serving", "fast"} {
		if _, err := parseKeyConfig(v); err == nil {
			t.Fatalf("-config %q accepted", v)
		}
	}
}

// TestServingConfigFlag: the cheap "serving" key is gone — its fast hits
// now come from the store's hint index under the full key — so a command
// line that still asks for it must fail at startup, on the primary and on
// a follower alike, rather than silently serve a different key.
func TestServingConfigFlag(t *testing.T) {
	if _, err := buildRegistry(config{arities: "4-6", shards: 4, cache: 16, keyConfig: "serving"}); err == nil ||
		!strings.Contains(err.Error(), "serving") {
		t.Fatalf("primary with -config serving: err %v, want a refusal naming the value", err)
	}
	if _, err := buildFollower(config{arities: "4-6", shards: 4, cache: 16, keyConfig: "serving", follow: "http://127.0.0.1:1"}, nil); err == nil ||
		!strings.Contains(err.Error(), "serving") {
		t.Fatalf("follower with -config serving: err %v, want a refusal naming the value", err)
	}
}

// TestDurableServerRestart is the -data lifecycle across a simulated
// kill: insert over HTTP into a durable flag-configured server, abandon
// the registry without closing (per-append fsync makes every
// acknowledged insert durable), rebuild the stack on the same data
// directory and require every class back with its identity.
func TestDurableServerRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// fsyncInterval 0 = fsync every append, the kill-safe mode.
	cfg := config{arities: "4-6", shards: 4, cache: 16, keyConfig: "full",
		dataDir: dir, segmentBytes: 1 << 12}
	c, _ := startServer(t, cfg)

	rng := rand.New(rand.NewSource(703))
	var hexes []string
	for n := 4; n <= 6; n++ {
		for k := 0; k < 4; k++ {
			hexes = append(hexes, tt.Random(n, rng).Hex())
		}
	}
	ins, err := c.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 {
		t.Fatalf("insert errors %d", ins.Errors)
	}
	// SIGKILL: the first server's registry is simply abandoned.

	c2, _ := startServer(t, cfg)
	cls, err := c2.Classify(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("class %d lost across restart", i)
		}
		if r.Class != ins.Results[i].Class || *r.Index != ins.Results[i].Index {
			t.Fatalf("class %d identity changed across restart", i)
		}
	}

	// Admin compaction over HTTP (/v2), then a third restart from the
	// snapshot.
	if _, err := c2.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	c3, _ := startServer(t, cfg)
	cls, err = c3.Classify(ctx, hexes[:3])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("class %d lost after compaction restart", i)
		}
	}
}
