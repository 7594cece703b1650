package auth

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// --- keyring ---

func TestParseKeySpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Key
	}{
		{"ci:sekrit", Key{Name: "ci", Secret: "sekrit"}},
		{"ci:sekrit:2.5", Key{Name: "ci", Secret: "sekrit", RPS: 2.5}},
		{"ci:sekrit:2:7", Key{Name: "ci", Secret: "sekrit", RPS: 2, Burst: 7}},
		{" ci :sekrit: 2 : 7 ", Key{Name: "ci", Secret: "sekrit", RPS: 2, Burst: 7}},
	} {
		got, err := ParseKeySpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseKeySpec(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Errorf("ParseKeySpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{"", "justaname", "a:b:c:d:e", "ci:s:notanumber", "ci:s:1:nope"} {
		if _, err := ParseKeySpec(bad); err == nil {
			t.Errorf("ParseKeySpec(%q): want error", bad)
		}
	}
}

func TestParseKeySpecRedactsSecret(t *testing.T) {
	_, err := ParseKeySpec("name:topsecret:1:2:toomany")
	if err == nil {
		t.Fatal("want error")
	}
	if strings.Contains(err.Error(), "topsecret") {
		t.Fatalf("error leaks the secret: %v", err)
	}
}

func TestParseKeysFile(t *testing.T) {
	const file = `
# CI fleet
ci:sekrit:5

bench:hunter2:0.5:3
`
	keys, err := ParseKeys(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0].Name != "ci" || keys[1].Burst != 3 {
		t.Fatalf("parsed %+v", keys)
	}

	_, err = ParseKeys(strings.NewReader("ok:fine\nbroken"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestNewKeyringRejects(t *testing.T) {
	for name, keys := range map[string][]Key{
		"empty secret":   {{Name: "a", Secret: ""}},
		"empty name":     {{Name: "", Secret: "s"}},
		"duplicate name": {{Name: "a", Secret: "s1"}, {Name: "a", Secret: "s2"}},
		"shared secret":  {{Name: "a", Secret: "s"}, {Name: "b", Secret: "s"}},
		"negative rate":  {{Name: "a", Secret: "s", RPS: -1}},
	} {
		if _, err := NewKeyring(keys); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestKeyringLookup(t *testing.T) {
	kr, err := NewKeyring([]Key{
		{Name: "ci", Secret: "sekrit", RPS: 5},
		{Name: "bench", Secret: "hunter2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if kr.Len() != 2 {
		t.Fatalf("Len = %d", kr.Len())
	}
	k, ok := kr.Lookup("sekrit")
	if !ok || k.Name != "ci" || k.RPS != 5 {
		t.Fatalf("Lookup(sekrit) = %+v, %v", k, ok)
	}
	if _, ok := kr.Lookup("wrong"); ok {
		t.Fatal("Lookup(wrong) matched")
	}
	if _, ok := kr.Lookup(""); ok {
		t.Fatal("Lookup of empty secret matched")
	}
}

func TestKeyBurstDefault(t *testing.T) {
	for _, tc := range []struct {
		k    Key
		want int
	}{
		{Key{RPS: 2.5}, 3},         // ceil(rps)
		{Key{RPS: 0.25}, 1},        // floored at 1
		{Key{}, 1},                 // unlimited key still gets a sane depth
		{Key{RPS: 2, Burst: 9}, 9}, // explicit wins
	} {
		if got := tc.k.burst(); got != tc.want {
			t.Errorf("%+v burst() = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestLoadKeyring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys")
	if err := os.WriteFile(path, []byte("file:fs:1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	kr, err := LoadKeyring(path, "inline:is:2,other:io")
	if err != nil {
		t.Fatal(err)
	}
	if kr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", kr.Len())
	}
	if _, ok := kr.Lookup("is"); !ok {
		t.Fatal("inline key not loaded")
	}

	// No sources at all means no keyring, not an empty one.
	kr, err = LoadKeyring("", "")
	if err != nil || kr != nil {
		t.Fatalf("empty LoadKeyring = %v, %v", kr, err)
	}

	if _, err := LoadKeyring(filepath.Join(dir, "missing"), ""); err == nil {
		t.Fatal("missing file: want error")
	}
}

// --- limiter ---

// testClock is a manual clock for the Limiter's now seam.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter(maxClients int) (*Limiter, *testClock) {
	clk := &testClock{t: time.Unix(1000, 0)}
	return &Limiter{MaxClients: maxClients, now: clk.now}, clk
}

func TestLimiterBurstThenRefill(t *testing.T) {
	l, clk := newTestLimiter(0)

	// The burst is spendable immediately.
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("k", 1, 3); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := l.Allow("k", 1, 3)
	if ok {
		t.Fatal("request past burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}

	// One second at 1 rps buys exactly one more token.
	clk.advance(time.Second)
	if ok, _ := l.Allow("k", 1, 3); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := l.Allow("k", 1, 3); ok {
		t.Fatal("second request after one refill admitted")
	}
}

func TestLimiterUnlimitedAndIsolation(t *testing.T) {
	l, _ := newTestLimiter(0)
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("free", 0, 0); !ok {
			t.Fatal("unlimited identity throttled")
		}
	}
	if l.Clients() != 0 {
		t.Fatalf("unlimited identity allocated a bucket: %d", l.Clients())
	}

	// Distinct identities have distinct buckets.
	l.Allow("a", 1, 1)
	if ok, _ := l.Allow("b", 1, 1); !ok {
		t.Fatal("b throttled by a's bucket")
	}
	if ok, _ := l.Allow("a", 1, 1); ok {
		t.Fatal("a's second request admitted past burst 1")
	}
}

func TestLimiterQuotaRestamped(t *testing.T) {
	// A quota change (key file reload) takes effect on the live bucket.
	l, clk := newTestLimiter(0)
	l.Allow("k", 1, 1)
	if ok, _ := l.Allow("k", 1, 1); ok {
		t.Fatal("past burst 1")
	}
	clk.advance(time.Second)
	// Same identity, raised rate: one second now buys 10 tokens (cap 5).
	for i := 0; i < 5; i++ {
		if ok, _ := l.Allow("k", 10, 5); !ok {
			t.Fatalf("request %d after quota raise refused", i)
		}
	}
}

func TestLimiterEviction(t *testing.T) {
	l, clk := newTestLimiter(2)
	l.Allow("a", 1, 1)
	l.Allow("b", 1, 1)
	if n := l.Clients(); n != 2 {
		t.Fatalf("Clients = %d", n)
	}
	// Table full and nothing refilled: an arbitrary bucket is dropped.
	l.Allow("c", 1, 1)
	if n := l.Clients(); n > 2 {
		t.Fatalf("Clients = %d, want <= 2", n)
	}
	// After a long idle stretch every bucket is refilled and sweepable.
	clk.advance(time.Hour)
	l.Allow("d", 1, 1)
	if n := l.Clients(); n > 2 {
		t.Fatalf("Clients after sweep = %d, want <= 2", n)
	}
}

// --- guard ---

func okHandler(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }

// call runs one request through a wrapped handler and returns the
// recorder. remoteAddr defaults to a fixed peer when empty.
func call(h http.HandlerFunc, bearer, remoteAddr string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/classify", nil)
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	if remoteAddr != "" {
		req.RemoteAddr = remoteAddr
	}
	h(rec, req)
	return rec
}

// decodeErr decodes the guard's error envelope.
func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) *api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("undecodable error body %q: %v", rec.Body.String(), err)
	}
	return env.Error
}

func mustKeyring(t *testing.T, keys ...Key) *Keyring {
	t.Helper()
	kr, err := NewKeyring(keys)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func TestGuardRequiresKeyWhenKeyringMounted(t *testing.T) {
	g := NewGuard(Options{Keys: mustKeyring(t, Key{Name: "ci", Secret: "sekrit"})})
	h := g.Wrap("/v2/classify", okHandler)

	rec := call(h, "", "")
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("missing key: status %d", rec.Code)
	}
	if e := decodeErr(t, rec); e.Code != api.CodeUnauthorized {
		t.Fatalf("code %q", e.Code)
	}

	if rec := call(h, "wrong", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d", rec.Code)
	}

	if rec := call(h, "sekrit", ""); rec.Code != http.StatusOK {
		t.Fatalf("valid key: status %d", rec.Code)
	}
}

func TestGuardRejectsNonBearerAuthorization(t *testing.T) {
	g := NewGuard(Options{Keys: mustKeyring(t, Key{Name: "ci", Secret: "sekrit"})})
	h := g.Wrap("/v2/classify", okHandler)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/classify", nil)
	req.Header.Set("Authorization", "Basic Y2k6c2Vrcml0")
	h(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("Basic auth: status %d, want 401", rec.Code)
	}
}

func TestGuardRejectsKeyWithoutKeyring(t *testing.T) {
	// A key offered to a keyless server must fail loudly, not silently
	// run in the anonymous tier.
	g := NewGuard(Options{AnonRPS: 100})
	h := g.Wrap("/v2/classify", okHandler)
	if rec := call(h, "stray", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("stray key: status %d, want 401", rec.Code)
	}
	if rec := call(h, "", ""); rec.Code != http.StatusOK {
		t.Fatalf("anonymous: status %d, want 200", rec.Code)
	}
}

func TestGuardKeyQuota429(t *testing.T) {
	g := NewGuard(Options{Keys: mustKeyring(t, Key{Name: "ci", Secret: "sekrit", RPS: 1, Burst: 2})})
	h := g.Wrap("/v2/classify", okHandler)

	for i := 0; i < 2; i++ {
		if rec := call(h, "sekrit", ""); rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, rec.Code)
		}
	}
	rec := call(h, "sekrit", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("past burst: status %d, want 429", rec.Code)
	}
	if e := decodeErr(t, rec); e.Code != api.CodeRateLimited {
		t.Fatalf("code %q", e.Code)
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", rec.Header().Get("Retry-After"))
	}
}

func TestGuardAnonymousPerIP(t *testing.T) {
	g := NewGuard(Options{AnonRPS: 1, AnonBurst: 1})
	h := g.Wrap("/v2/classify", okHandler)

	if rec := call(h, "", "10.0.0.1:1111"); rec.Code != http.StatusOK {
		t.Fatalf("first from .1: status %d", rec.Code)
	}
	if rec := call(h, "", "10.0.0.1:2222"); rec.Code != http.StatusTooManyRequests {
		t.Fatal("second from .1 (different port, same IP) not throttled")
	}
	// A different peer has its own bucket.
	if rec := call(h, "", "10.0.0.2:1111"); rec.Code != http.StatusOK {
		t.Fatalf("first from .2: status %d", rec.Code)
	}
}

func TestGuardShedsOnPressure(t *testing.T) {
	depth := int64(0)
	reg := obs.NewRegistry()
	g := NewGuard(Options{
		AnonRPS:  1000,
		Pressure: func() (int64, int64) { return depth, 4 },
		Metrics:  reg,
	})
	h := g.Wrap("/v2/classify", okHandler)
	hz := g.Wrap("/healthz", okHandler)

	if rec := call(h, "", ""); rec.Code != http.StatusOK {
		t.Fatalf("under limit: status %d", rec.Code)
	}
	depth = 4
	rec := call(h, "", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("at limit: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if e := decodeErr(t, rec); e.Code != api.CodeRateLimited {
		t.Fatalf("code %q", e.Code)
	}
	// The probe route must answer through the overload.
	if rec := call(hz, "", ""); rec.Code != http.StatusOK {
		t.Fatalf("/healthz shed: status %d", rec.Code)
	}

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	scr, err := obs.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scr.Value("npn_http_shed_total", "route=/v2/classify"); !ok || v != 1 {
		t.Fatalf("npn_http_shed_total = %v, %v; want 1", v, ok)
	}
}

func TestGuardMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGuard(Options{
		Keys:    mustKeyring(t, Key{Name: "ci", Secret: "sekrit", RPS: 1, Burst: 1}),
		Metrics: reg,
	})
	h := g.Wrap("/v2/classify", okHandler)

	call(h, "", "")       // unauthorized
	call(h, "sekrit", "") // ok, spends the burst
	call(h, "sekrit", "") // rate limited

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	scr, err := obs.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for fam, want := range map[string]float64{
		"npn_http_unauthorized_total": 1,
		"npn_http_rate_limited_total": 1,
	} {
		if v, _ := scr.Value(fam, "route=/v2/classify"); v != want {
			t.Errorf("%s = %v, want %v", fam, v, want)
		}
	}
}

func TestGuardExemptRoutes(t *testing.T) {
	// Everything is locked down, yet default-exempt routes pass through —
	// Wrap returns the handler untouched.
	g := NewGuard(Options{Keys: mustKeyring(t, Key{Name: "ci", Secret: "sekrit"})})
	for _, route := range DefaultExempt {
		if rec := call(g.Wrap(route, okHandler), "", ""); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", route, rec.Code)
		}
	}
}

func TestGuardAuthOnlyRoutes(t *testing.T) {
	// The flight-recorder routes authenticate — trace details name client
	// identities, so a keyed edge must not serve them keyless — but skip
	// rate limiting and load shedding, staying readable through exactly
	// the overload under debug.
	g := NewGuard(Options{
		Keys:     mustKeyring(t, Key{Name: "ci", Secret: "sekrit", RPS: 1, Burst: 1}),
		Pressure: func() (int64, int64) { return 10, 10 }, // saturated: everything sheds
	})
	for _, route := range DefaultAuthOnly {
		h := g.Wrap(route, okHandler)
		rec := call(h, "", "")
		if rec.Code != http.StatusUnauthorized {
			t.Errorf("%s keyless: status %d, want 401", route, rec.Code)
		}
		// Repeated keyed reads pass despite the burst-1 quota and the
		// saturated pressure signal — and spend no tokens doing so.
		for i := 0; i < 3; i++ {
			if rec := call(h, "sekrit", ""); rec.Code != http.StatusOK {
				t.Errorf("%s keyed read %d: status %d, want 200", route, i, rec.Code)
			}
		}
	}
	// On an unsaturated guard the auth-only reads spend no tokens: the
	// API bucket still has its full burst, and once that is gone the
	// trace routes keep answering.
	gNoShed := NewGuard(Options{
		Keys: mustKeyring(t, Key{Name: "ci", Secret: "sekrit", RPS: 1, Burst: 1}),
	})
	api1 := gNoShed.Wrap("/v2/classify", okHandler)
	if rec := call(api1, "sekrit", ""); rec.Code != http.StatusOK {
		t.Errorf("first API call: status %d, want 200", rec.Code)
	}
	if rec := call(api1, "sekrit", ""); rec.Code != http.StatusTooManyRequests {
		t.Errorf("second API call: status %d, want 429", rec.Code)
	}
	for _, route := range DefaultAuthOnly {
		if rec := call(gNoShed.Wrap(route, okHandler), "sekrit", ""); rec.Code != http.StatusOK {
			t.Errorf("%s while API quota exhausted: status %d, want 200", route, rec.Code)
		}
	}
}
