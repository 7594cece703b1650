// The HTTP surface of a single Service: one arity served alone is a
// one-arity federation (federation.New(n, n, …)) behind the /v2 handler,
// so these tests drive that deployment end to end.
package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/federation"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tt"
)

// newTestHandler serves arity n alone and returns its Service.
func newTestHandler(t *testing.T, n int, so service.Options) (*service.Service, http.Handler) {
	t.Helper()
	reg, err := federation.New(n, n, federation.Options{
		Store:   store.Options{Shards: 4},
		Service: so,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Service(n)
	if err != nil {
		t.Fatal(err)
	}
	return svc, federation.NewHandler(reg)
}

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postJSON(t *testing.T, h http.Handler, path string, fns ...string) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(api.BatchRequest{Functions: fns})
	if err != nil {
		t.Fatal(err)
	}
	return post(h, path, string(b))
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %s: %v", rec.Body, err)
	}
	return v
}

func TestHandlerInsertThenClassify(t *testing.T) {
	n := 4
	_, h := newTestHandler(t, n, service.Options{Workers: 2})

	ins := postJSON(t, h, "/v2/insert", "e8e8", "0110")
	if ins.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", ins.Code, ins.Body)
	}
	insResp := decode[api.InsertResponse](t, ins)
	if insResp.Errors != 0 || len(insResp.Results) != 2 || !insResp.Results[0].New || !insResp.Results[1].New {
		t.Fatalf("insert response %+v", insResp)
	}

	// Classify an NPN variant of the first insert: swap of inputs 0,1 of
	// e8e8 is itself (symmetric), so use an output-negated variant instead.
	variant := tt.MustFromHex(n, "e8e8").Not()
	cls := postJSON(t, h, "/v2/classify", variant.Hex())
	if cls.Code != http.StatusOK {
		t.Fatalf("classify status %d: %s", cls.Code, cls.Body)
	}
	r := decode[api.ClassifyResponse](t, cls).Results[0]
	if !r.Hit || r.Class != insResp.Results[0].Class {
		t.Fatalf("classify response %+v, want hit on class %s", r, insResp.Results[0].Class)
	}
	if r.Witness == nil || len(r.Witness.Perm) != n {
		t.Fatalf("witness missing or malformed: %+v", r.Witness)
	}
	// Replay the wire witness locally: witness(rep) must equal the query.
	rep := tt.MustFromHex(n, r.Rep)
	tr, err := r.Witness.Transform()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Apply(rep).Equal(variant) {
		t.Fatal("wire witness does not verify")
	}
}

func TestHandlerClassifyMiss(t *testing.T) {
	_, h := newTestHandler(t, 3, service.Options{Workers: 2})
	rec := postJSON(t, h, "/v2/classify", "96")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	resp := decode[api.ClassifyResponse](t, rec)
	r := resp.Results[0]
	if resp.Errors != 0 || r.Error != nil {
		t.Fatalf("miss reported as an error: %+v", resp)
	}
	if r.Hit || r.Index != nil || r.Rep != "" || r.Witness != nil {
		t.Fatalf("miss response carries hit fields: %+v", r)
	}
	if len(r.Class) != 16 {
		t.Fatalf("miss must still carry the 16-hex class key, got %q", r.Class)
	}
}

// TestHandlerRejectsBadInput: a malformed envelope fails the whole
// request with a coded error; a malformed function fails only its item.
func TestHandlerRejectsBadInput(t *testing.T) {
	_, h := newTestHandler(t, 4, service.Options{Workers: 2})
	cases := []struct {
		name     string
		body     string
		wantCode api.Code
		// item is the index of the failing item, or -1 for a
		// whole-request rejection.
		item int
	}{
		{"empty batch", `{"functions":[]}`, api.CodeBadRequest, -1},
		{"not json", `not json`, api.CodeBadRequest, -1},
		{"unknown field", `{"funcs":["e8e8"]}`, api.CodeBadRequest, -1},
		{"bad hex", `{"functions":["e8e8","zzzz"]}`, api.CodeBadHex, 1},
		{"table too long", `{"functions":["e8e8e8"]}`, api.CodeArityOutOfRange, 0},
	}
	for _, tc := range cases {
		rec := post(h, "/v2/classify", tc.body)
		if tc.item < 0 {
			env := decode[api.ErrorEnvelope](t, rec)
			if rec.Code != http.StatusBadRequest || env.Error == nil || env.Error.Code != tc.wantCode {
				t.Errorf("%s: %d %s, want 400 %s", tc.name, rec.Code, rec.Body, tc.wantCode)
			}
			continue
		}
		resp := decode[api.ClassifyResponse](t, rec)
		if rec.Code != http.StatusOK || resp.Errors != 1 {
			t.Errorf("%s: %d %s, want 200 with one item error", tc.name, rec.Code, rec.Body)
			continue
		}
		if e := resp.Results[tc.item].Error; e == nil || e.Code != tc.wantCode {
			t.Errorf("%s: item %d error %+v, want %s", tc.name, tc.item, e, tc.wantCode)
		}
	}
}

// TestHandlerRejectsOversizedBody asserts the body cap kicks in before
// the decoder buffers an arbitrarily large request.
func TestHandlerRejectsOversizedBody(t *testing.T) {
	_, h := newTestHandler(t, 4, service.Options{Workers: 2})
	rec := post(h, "/v2/classify", `{"functions":["`+strings.Repeat("0", int(api.MaxBodyBytes(4)))+`"]}`)
	env := decode[api.ErrorEnvelope](t, rec)
	if rec.Code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != api.CodeBodyTooLarge {
		t.Fatalf("%d %s, want 413 body_too_large", rec.Code, rec.Body)
	}
}

func TestHandlerMethods(t *testing.T) {
	_, h := newTestHandler(t, 3, service.Options{Workers: 2})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/classify", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/classify status %d, want 405", rec.Code)
	}
}

// TestHandlerStatsAndHealth: /healthz reports the served arity once its
// service is up, and the counters have no JSON route — GET /v2/stats is
// not_found; /metrics is their read-out.
func TestHandlerStatsAndHealth(t *testing.T) {
	svc, h := newTestHandler(t, 3, service.Options{Workers: 2})
	svc.InsertCtx(context.Background(), []*tt.TT{tt.MustFromHex(3, "e8")})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Status  string `json:"status"`
		MinVars int    `json:"min_vars"`
		MaxVars int    `json:"max_vars"`
		Active  []int  `json:"active"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || rec.Code != http.StatusOK ||
		health.Status != "ok" || health.MinVars != 3 || health.MaxVars != 3 || len(health.Active) != 1 || health.Active[0] != 3 {
		t.Fatalf("healthz %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/stats", nil))
	if env := decode[api.ErrorEnvelope](t, rec); rec.Code != http.StatusNotFound || env.Error == nil || env.Error.Code != api.CodeNotFound {
		t.Fatalf("GET /v2/stats: %d %s, want 404 not_found", rec.Code, rec.Body)
	}
}

// brokenJournal refuses every log append, simulating a full disk.
type brokenJournal struct{}

func (brokenJournal) LogInsert(context.Context, uint64, *tt.TT) error { return errInsertRefused }
func (brokenJournal) Commit(context.Context) error                    { return nil }

var errInsertRefused = errors.New("disk full")

// TestInsertRefusedNotAcknowledged: a journal failure must never be
// acknowledged — each refused item carries not_durable, so the client
// is told its classes are not durable.
func TestInsertRefusedNotAcknowledged(t *testing.T) {
	svc, h := newTestHandler(t, 4, service.Options{Workers: 1, CacheSize: -1})
	svc.Store().SetJournal(brokenJournal{})

	rec := postJSON(t, h, "/v2/insert", "1ee1", "8bb8")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d (body %s)", rec.Code, rec.Body)
	}
	resp := decode[api.InsertResponse](t, rec)
	if resp.Errors != 2 {
		t.Fatalf("errors %d, want 2 (body %s)", resp.Errors, rec.Body)
	}
	for i, it := range resp.Results {
		if it.Error == nil || it.Error.Code != api.CodeNotDurable || it.Index != -1 || it.New {
			t.Fatalf("item %d acknowledged despite the journal failure: %+v", i, it)
		}
	}
	if svc.Stats().JournalErrors != 2 {
		t.Fatalf("journal_errors %d, want 2", svc.Stats().JournalErrors)
	}
}
