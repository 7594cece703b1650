package federation

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/npn"
	"repro/internal/tt"
)

func newTestServer(t *testing.T, lo, hi int) *httptest.Server {
	t.Helper()
	reg, err := New(lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestHandlerMixedArityRoundTrip drives the federated handler end to end
// over HTTP: a mixed insert, a mixed classify of disguises with witness
// replay, and a per-arity read of the hit counters.
func TestHandlerMixedArityRoundTrip(t *testing.T) {
	reg := mustNew(t, 4, 8)
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	rng := rand.New(rand.NewSource(510))

	var base []*tt.TT
	var hexes []string
	for n := 4; n <= 8; n++ {
		f := tt.Random(n, rng)
		base = append(base, f)
		hexes = append(hexes, f.Hex())
	}
	body, _ := json.Marshal(api.BatchRequest{Functions: hexes})
	resp, raw := postJSON(t, srv.URL+"/v2/insert", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, raw)
	}

	queries := make([]string, len(base))
	queryTT := make([]*tt.TT, len(base))
	for i, f := range base {
		queryTT[i] = npn.RandomTransform(f.NumVars(), rng).Apply(f)
		queries[i] = queryTT[i].Hex()
	}
	body, _ = json.Marshal(api.BatchRequest{Functions: queries})
	resp, raw = postJSON(t, srv.URL+"/v2/classify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, raw)
	}
	var cls api.ClassifyResponse
	if err := json.Unmarshal(raw, &cls); err != nil {
		t.Fatal(err)
	}
	if cls.Errors != 0 {
		t.Fatalf("classify reported %d item errors: %s", cls.Errors, raw)
	}
	for i, r := range cls.Results {
		n := base[i].NumVars()
		if !r.Hit {
			t.Fatalf("query %d (n=%d) missed", i, n)
		}
		tr, err := r.Witness.Transform()
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Apply(tt.MustFromHex(n, r.Rep)).Equal(queryTT[i]) {
			t.Fatalf("query %d (n=%d): wire witness does not verify", i, n)
		}
	}

	if active := reg.Active(); len(active) != 5 {
		t.Fatalf("active arities %v, want 4..8", active)
	}
	for n := 4; n <= 8; n++ {
		svc, _ := reg.Service(n)
		if hits := svc.Stats().Hits; hits != 1 {
			t.Fatalf("arity %d counted %d hits, want 1", n, hits)
		}
	}
}

// TestHandlerErrorPaths is the table of malformed requests the HTTP layer
// must reject. A malformed envelope fails the whole request: the case
// asserts the status and the {"error": {"code", "message"}} envelope. A
// malformed function fails only its own item (item >= 0): the batch
// answers 200 and that item carries the coded error.
func TestHandlerErrorPaths(t *testing.T) {
	srv := newTestServer(t, 4, 6)

	hugeBody := func() []byte {
		// One batch entry far past the body byte bound for MaxVars=6.
		return []byte(`{"functions":["` + strings.Repeat("f", int(api.MaxBodyBytes(6))+1024) + `"]}`)
	}

	cases := []struct {
		name       string
		path       string
		body       []byte
		wantStatus int
		wantCode   api.Code
		item       int // index of the failing item; -1 fails the request
		wantSubstr string
	}{
		{
			name:       "oversized body",
			path:       "/v2/classify",
			body:       hugeBody(),
			wantStatus: http.StatusRequestEntityTooLarge,
			wantCode:   api.CodeBodyTooLarge,
			item:       -1,
			wantSubstr: "exceeds",
		},
		{
			name:       "malformed JSON",
			path:       "/v2/classify",
			body:       []byte(`{"functions": [`),
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
			item:       -1,
			wantSubstr: "bad request body",
		},
		{
			name:       "unknown field",
			path:       "/v2/classify",
			body:       []byte(`{"funcs":["cafef00dcafef00d"]}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
			item:       -1,
			wantSubstr: "bad request body",
		},
		{
			name:       "empty batch",
			path:       "/v2/classify",
			body:       []byte(`{"functions":[]}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
			item:       -1,
			wantSubstr: "non-empty",
		},
		{
			name:       "empty batch on insert",
			path:       "/v2/insert",
			body:       []byte(`{"functions":[]}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   api.CodeBadRequest,
			item:       -1,
			wantSubstr: "non-empty",
		},
		{
			name:       "malformed witness hex",
			path:       "/v2/classify",
			body:       []byte(`{"functions":["zzzzzzzzzzzzzzzz"]}`),
			wantStatus: http.StatusOK,
			wantCode:   api.CodeBadHex,
			item:       0,
		},
		{
			name:       "arity below federated range",
			path:       "/v2/classify",
			body:       []byte(`{"functions":["e8"]}`), // 2 digits = n=3 < 4
			wantStatus: http.StatusOK,
			wantCode:   api.CodeArityOutOfRange,
			item:       0,
			wantSubstr: "no federated arity",
		},
		{
			name:       "arity above federated range",
			path:       "/v2/insert",
			body:       []byte(`{"functions":["` + strings.Repeat("a", 32) + `"]}`), // n=7 > 6
			wantStatus: http.StatusOK,
			wantCode:   api.CodeArityOutOfRange,
			item:       0,
			wantSubstr: "no federated arity",
		},
		{
			name:       "second function bad in mixed batch",
			path:       "/v2/classify",
			body:       []byte(`{"functions":["cafef00dcafef00d","123"]}`),
			wantStatus: http.StatusOK,
			wantCode:   api.CodeArityOutOfRange,
			item:       1,
			wantSubstr: "no federated arity",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e *api.Error
			if tc.item < 0 {
				var env api.ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatalf("error body is not the envelope: %v (%s)", err, body)
				}
				e = env.Error
			} else {
				// Classify and insert items share the function/error shape.
				var batch struct {
					Results []struct {
						Error *api.Error `json:"error"`
					} `json:"results"`
					Errors int `json:"errors"`
				}
				if err := json.Unmarshal(body, &batch); err != nil {
					t.Fatalf("batch body: %v (%s)", err, body)
				}
				if batch.Errors != 1 || len(batch.Results) <= tc.item {
					t.Fatalf("want exactly item %d failed: %s", tc.item, body)
				}
				e = batch.Results[tc.item].Error
			}
			if e == nil || e.Code != tc.wantCode || e.Message == "" {
				t.Fatalf("error %+v, want code %s with a message (body %s)", e, tc.wantCode, body)
			}
			if !strings.Contains(e.Message, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", e.Message, tc.wantSubstr)
			}
		})
	}
}

// TestHandlerHealthz reports the federated range and the lazily active set.
func TestHandlerHealthz(t *testing.T) {
	srv := newTestServer(t, 4, 10)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		MinVars int    `json:"min_vars"`
		MaxVars int    `json:"max_vars"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.MinVars != 4 || h.MaxVars != 10 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestHandlerCompact drives the admin compaction endpoint: 409
// not_durable on a memory-only registry, and a folded-segment report on
// a durable one.
func TestHandlerCompact(t *testing.T) {
	srv := newTestServer(t, 4, 6)
	resp, raw := postJSON(t, srv.URL+"/v2/compact", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact on memory-only registry: status %d (%s)", resp.StatusCode, raw)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != api.CodeNotDurable {
		t.Fatalf("compact error body %s", raw)
	}

	reg := durableRegistry(t, t.TempDir(), 4, 6)
	t.Cleanup(func() { reg.Close() })
	dsrv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(dsrv.Close)

	rng := rand.New(rand.NewSource(62))
	var hexes []string
	for i := 0; i < 4; i++ {
		hexes = append(hexes, tt.Random(5, rng).Hex())
	}
	body, _ := json.Marshal(api.BatchRequest{Functions: hexes})
	if resp, raw := postJSON(t, dsrv.URL+"/v2/insert", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, dsrv.URL+"/v2/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d: %s", resp.StatusCode, raw)
	}
	var report struct {
		Arities []CompactResult `json:"arities"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Arities) != 1 || report.Arities[0].Arity != 5 || report.Arities[0].RecordsFolded != 4 {
		t.Fatalf("compact report %s", raw)
	}

	// The one active arity has a log, and it holds the live segment.
	if active := reg.Active(); len(active) != 1 || active[0] != 5 || reg.writer(5) == nil || reg.writer(5).Stats().Segments == 0 {
		t.Fatalf("durable registry: active %v, arity 5 writer %v", active, reg.writer(5))
	}
}

// TestArityErrorSameOnBothTransports: a function of an unserved arity
// whose hex length names that arity fails with the same error object
// (code, message, detail) whether the JSON envelope or the binary frame
// carried it, because both request transports ask CheckArity.
func TestArityErrorSameOnBothTransports(t *testing.T) {
	srv := newTestServer(t, 4, 6)
	rng := rand.New(rand.NewSource(66))
	for _, n := range []int{3, 7} {
		f := tt.Random(n, rng)
		body, _ := json.Marshal(api.BatchRequest{Functions: []string{f.Hex()}})
		_, raw := postJSON(t, srv.URL+"/v2/classify", body)
		var viaJSON api.ClassifyResponse
		if err := json.Unmarshal(raw, &viaJSON); err != nil || len(viaJSON.Results) != 1 {
			t.Fatalf("n=%d: JSON request: %v %s", n, err, raw)
		}

		resp, err := http.Post(srv.URL+"/v2/classify", api.BinaryContentType,
			bytes.NewReader(api.EncodeBinaryRequest([]*tt.TT{f}, false)))
		if err != nil {
			t.Fatal(err)
		}
		var viaFrame api.ClassifyResponse
		err = json.NewDecoder(resp.Body).Decode(&viaFrame)
		resp.Body.Close()
		if err != nil || len(viaFrame.Results) != 1 {
			t.Fatalf("n=%d: frame request: %v", n, err)
		}

		je, fe := viaJSON.Results[0].Error, viaFrame.Results[0].Error
		if je == nil || fe == nil || je.Code != api.CodeArityOutOfRange || *je != *fe {
			t.Fatalf("n=%d: JSON request error %+v, frame request error %+v", n, je, fe)
		}
	}
}

// TestMapInsertRefusesUnservedK: /v2/map?insert=true with a k the
// registry does not serve answers arity_out_of_range and stores nothing.
func TestMapInsertRefusesUnservedK(t *testing.T) {
	reg := mustNew(t, 4, 6)
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	var aag strings.Builder
	if err := aig.WriteAAG(&aag, gen.RippleCarryAdder(4)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v2/map?k=3&insert=true", "text/plain", strings.NewReader(aag.String()))
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != api.CodeArityOutOfRange {
		t.Fatalf("map k=3 insert: status %d, %v, error %+v", resp.StatusCode, err, env.Error)
	}
	if active := reg.Active(); len(active) != 0 {
		t.Fatalf("refused map insert constructed arities %v", active)
	}
}
