package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/gen"
	"repro/internal/tt"
)

// fakeBackend is a minimal Backend: arity-4 functions, every classify a
// deterministic miss, every insert a new class — plus failure injection.
type fakeBackend struct {
	// insertErr fails every Insert as a whole batch.
	insertErr *Error
}

func (b *fakeBackend) CheckArity(n int) *Error {
	if n != 4 {
		return Errf(CodeArityOutOfRange, "arity %d; want 4", n)
	}
	return nil
}

func (b *fakeBackend) Classify(_ context.Context, fs []*tt.TT) ([]Result, *Error) {
	out := make([]Result, len(fs))
	for i := range out {
		out[i] = Result{Key: 42, Hit: false}
	}
	return out, nil
}

func (b *fakeBackend) Insert(_ context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
	if b.insertErr != nil {
		return nil, b.insertErr
	}
	out := make([]InsertOutcome, len(fs))
	for i := range out {
		out[i] = InsertOutcome{Key: 7, Index: 0, New: true}
	}
	return out, nil
}

func postReq(h http.HandlerFunc, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, body []byte) *Error {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("body is not an error envelope: %s", body)
	}
	return env.Error
}

// TestRouterFallbacks: unmatched paths answer the JSON not_found
// envelope, wrong methods answer method_not_allowed with Allow.
func TestRouterFallbacks(t *testing.T) {
	rt := NewRouter("federated")
	rt.Handle("GET", "/x", "", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]int{"ok": 1})
	})
	rt.Handle("POST", "/x", "", func(w http.ResponseWriter, r *http.Request) {})

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeNotFound {
		t.Fatalf("404 fallback: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/x", nil))
	if rec.Code != http.StatusMethodNotAllowed || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeMethodNotAllowed {
		t.Fatalf("405 fallback: %d %s", rec.Code, rec.Body)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, POST" {
		t.Fatalf("Allow header %q, want \"GET, POST\"", allow)
	}
}

// TestRouterSpec reflects registrations.
func TestRouterSpec(t *testing.T) {
	rt := NewRouter("federated")
	rt.Handle("POST", "/v2/classify", "lookup", func(w http.ResponseWriter, r *http.Request) {})
	rt.MountSpec()

	s := rt.Spec()
	if s.Role != "federated" || s.APIVersion != Version || len(s.Routes) != 2 {
		t.Fatalf("spec %+v", s)
	}
	if r := s.Routes[0]; r.Method != "POST" || r.Pattern != "/v2/classify" || r.Desc != "lookup" {
		t.Fatalf("route %+v", r)
	}
	if len(s.ErrorCodes) != len(Codes()) {
		t.Fatalf("error codes %v", s.ErrorCodes)
	}

	// The spec route itself serves.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/spec", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/v2/classify") {
		t.Fatalf("spec endpoint: %d %s", rec.Code, rec.Body)
	}
}

// TestErrorStatusMapping pins the code → status table.
func TestErrorStatusMapping(t *testing.T) {
	for code, want := range map[Code]int{
		CodeBadRequest:           400,
		CodeBadHex:               400,
		CodeArityOutOfRange:      400,
		CodeBatchTooLarge:        400,
		CodeBadCircuit:           400,
		CodeBodyTooLarge:         413,
		CodeUnsupportedMediaType: 415,
		CodeReadOnly:             403,
		CodeNotDurable:           409,
		CodeNotFound:             404,
		CodeMethodNotAllowed:     405,
		CodePrimaryUnreachable:   502,
		CodeUnauthorized:         401,
		CodeRateLimited:          429,
		CodeVerifyFailed:         500,
		CodeInternal:             500,
	} {
		if got := Errf(code, "x").HTTPStatus(); got != want {
			t.Errorf("%s -> %d, want %d", code, got, want)
		}
	}
}

// TestDecodeBatchEnvelope: the whole-request error paths.
func TestDecodeBatchEnvelope(t *testing.T) {
	b := &fakeBackend{}
	h := HandleClassify(b, 1<<16)

	cases := []struct {
		name        string
		contentType string
		body        string
		wantStatus  int
		wantCode    Code
	}{
		{"wrong content type", "text/csv", `{"functions":["1ee1"]}`, 415, CodeUnsupportedMediaType},
		{"bad json", "application/json", `{"functions": [`, 400, CodeBadRequest},
		{"unknown field", "application/json", `{"funcs":["1ee1"]}`, 400, CodeBadRequest},
		{"empty batch", "application/json", `{"functions":[]}`, 400, CodeBadRequest},
		{"missing content type ok", "", `{"functions":["1ee1"]}`, 200, ""},
	}
	for _, tc := range cases {
		rec := postReq(h, "/v2/classify", tc.contentType, tc.body)
		if rec.Code != tc.wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.wantStatus, rec.Body)
		}
		if tc.wantCode != "" && decodeEnvelope(t, rec.Body.Bytes()).Code != tc.wantCode {
			t.Fatalf("%s: %s", tc.name, rec.Body)
		}
	}

	// batch_too_large.
	big := `{"functions":["` + strings.Repeat(`1ee1","`, MaxBatch) + `1ee1"]}`
	rec := postReq(HandleClassify(b, int64(len(big)+1024)), "/v2/classify", "application/json", big)
	if rec.Code != 400 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeBatchTooLarge {
		t.Fatalf("batch_too_large: %d %s", rec.Code, rec.Body.Bytes()[:120])
	}

	// body_too_large.
	rec = postReq(h, "/v2/classify", "application/json", `{"functions":["`+strings.Repeat("0", 1<<17)+`"]}`)
	if rec.Code != 413 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeBodyTooLarge {
		t.Fatalf("body_too_large: %d %s", rec.Code, rec.Body)
	}

	// A JSON body is exactly one envelope on both batch handlers: bytes
	// after it fail the whole request, trailing whitespace aside, and a
	// trailing read past the byte bound is still body_too_large.
	for _, hd := range []struct {
		path string
		h    http.HandlerFunc
	}{
		{"/v2/classify", h},
		{"/v2/insert", HandleInsert(b, 1<<16)},
	} {
		for _, tc := range []struct {
			name       string
			body       string
			wantStatus int
			wantCode   Code
		}{
			{"second envelope", `{"functions":["1ee1"]}{"functions":["zz"]}`, 400, CodeBadRequest},
			{"trailing garbage", `{"functions":["1ee1"]} x`, 400, CodeBadRequest},
			{"trailing whitespace ok", "{\"functions\":[\"1ee1\"]}\r\n\t ", 200, ""},
			{"trailing bytes past the bound", `{"functions":["1ee1"]}` + strings.Repeat(" ", 1<<17), 413, CodeBodyTooLarge},
		} {
			rec := postReq(hd.h, hd.path, "application/json", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (%s)", hd.path, tc.name, rec.Code, tc.wantStatus, rec.Body)
			}
			if tc.wantCode != "" && decodeEnvelope(t, rec.Body.Bytes()).Code != tc.wantCode {
				t.Fatalf("%s %s: %s", hd.path, tc.name, rec.Body)
			}
		}
	}
}

// TestPerItemErrors: a bad function fails only its own item, and an
// insert refusal surfaces as a not_durable item.
func TestPerItemErrors(t *testing.T) {
	b := &fakeBackend{}
	rec := postReq(HandleClassify(b, 1<<16), "/v2/classify", "application/json",
		`{"functions":["1ee1","zzzz","1ee1bad"]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var cls ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cls); err != nil {
		t.Fatal(err)
	}
	if cls.Errors != 2 || len(cls.Results) != 3 {
		t.Fatalf("response %+v", cls)
	}
	if cls.Results[0].Error != nil || cls.Results[0].Class != KeyHex(42) {
		t.Fatalf("good item %+v", cls.Results[0])
	}
	if cls.Results[1].Error.Code != CodeBadHex || cls.Results[2].Error.Code != CodeArityOutOfRange {
		t.Fatalf("error items %+v", cls.Results[1:])
	}

	// Whole-batch insert error becomes the envelope.
	b.insertErr = Errf(CodeReadOnly, "nope")
	rec = postReq(HandleInsert(b, 1<<16), "/v2/insert", "application/json", `{"functions":["1ee1"]}`)
	if rec.Code != 403 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeReadOnly {
		t.Fatalf("read_only: %d %s", rec.Code, rec.Body)
	}
}

// TestNotDurableItem: a journal-refused insert (Index < 0) is a per-item
// not_durable error inside a 200, unlike /v1's whole-batch 500.
func TestNotDurableItem(t *testing.T) {
	refusing := &refusingBackend{}
	rec := postReq(HandleInsert(refusing, 1<<16), "/v2/insert", "application/json",
		`{"functions":["1ee1","8bb8"]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var ins InsertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 1 {
		t.Fatalf("errors %d", ins.Errors)
	}
	if ins.Results[0].Error != nil {
		t.Fatalf("first item should succeed: %+v", ins.Results[0])
	}
	if ins.Results[1].Error == nil || ins.Results[1].Error.Code != CodeNotDurable || ins.Results[1].Index != -1 {
		t.Fatalf("refused item %+v", ins.Results[1])
	}

	// All four transport corners report the same not_durable error —
	// code, message and the request ID — for the refused item.
	const reqID = "req-not-durable"
	fs := []*tt.TT{mustHex(t, "1ee1"), mustHex(t, "8bb8")}
	var want *Error
	for _, binReq := range []bool{false, true} {
		for _, binResp := range []bool{false, true} {
			body, ct := []byte(`{"functions":["1ee1","8bb8"]}`), "application/json"
			if binReq {
				body, ct = EncodeBinaryRequest(fs, false), BinaryContentType
			}
			rec := postAs(HandleInsert(refusing, 1<<16), reqID, "/v2/insert", ct, binResp, body)
			if rec.Code != 200 {
				t.Fatalf("binary request %v, binary response %v: status %d: %s", binReq, binResp, rec.Code, rec.Body)
			}
			var got *Error
			if binResp {
				items, err := DecodeBinaryInsert(rec.Body.Bytes())
				if err != nil || len(items) != 2 {
					t.Fatalf("binary request %v: binary response: %v %+v", binReq, err, items)
				}
				got = items[1].Err
			} else {
				var resp InsertResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 2 {
					t.Fatalf("binary request %v: JSON response: %v %s", binReq, err, rec.Body)
				}
				got = resp.Results[1].Error
			}
			if got == nil || got.Code != CodeNotDurable || got.RequestID != reqID {
				t.Fatalf("binary request %v, binary response %v: refused item error %+v, want not_durable with request_id %q",
					binReq, binResp, got, reqID)
			}
			if want == nil {
				want = got
			} else if *got != *want {
				t.Fatalf("binary request %v, binary response %v: error %+v differs from %+v", binReq, binResp, got, want)
			}
		}
	}
}

// mustHex parses an arity-4 hex table.
func mustHex(t *testing.T, s string) *tt.TT {
	t.Helper()
	f, err := tt.FromHex(4, s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// refusingBackend refuses the second insert of every batch.
type refusingBackend struct{ fakeBackend }

func (b *refusingBackend) Insert(_ context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
	out := make([]InsertOutcome, len(fs))
	for i := range out {
		out[i] = InsertOutcome{Key: 7, Index: 0, New: true}
		if i == 1 {
			out[i].Index = -1
		}
	}
	return out, nil
}

// mapRecorder is a fakeBackend that keeps the last batch inserted.
type mapRecorder struct {
	fakeBackend
	inserted []*tt.TT
}

func (b *mapRecorder) Insert(ctx context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
	b.inserted = fs
	return b.fakeBackend.Insert(ctx, fs)
}

// TestMapHandler: parameter validation, content-type gate, verified
// mapping with census, insert backend plumbing, read_only without one.
func TestMapHandler(t *testing.T) {
	var aag strings.Builder
	if err := aig.WriteAAG(&aag, gen.RippleCarryAdder(4)); err != nil {
		t.Fatal(err)
	}
	rb := &mapRecorder{}
	h := HandleMap(MapConfig{Insert: rb})

	rec := postReq(h, "/v2/map?k=4&mode=area&insert=true", "text/plain", aag.String())
	if rec.Code != 200 {
		t.Fatalf("map status %d: %s", rec.Code, rec.Body)
	}
	var resp MapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Verified || resp.VerifyMethod != "exhaustive" || resp.K != 4 || resp.Mode != "area" {
		t.Fatalf("map response %+v", resp)
	}
	if resp.Area == 0 || resp.Area != len(resp.LUTs) || len(resp.Classes) == 0 {
		t.Fatalf("mapping shape %+v", resp)
	}
	inserted := rb.inserted
	if resp.Inserted == nil || resp.Inserted.Functions != len(inserted) || resp.Inserted.ClassesCreated != len(inserted) {
		t.Fatalf("insert summary %+v (%d offered)", resp.Inserted, len(inserted))
	}
	for _, f := range inserted {
		if f.NumVars() != 4 {
			t.Fatalf("inserted function has arity %d, want K=4", f.NumVars())
		}
	}

	// Param errors.
	for q, code := range map[string]Code{
		"?k=1":             CodeArityOutOfRange,
		"?k=5&insert=true": CodeArityOutOfRange, // fakeBackend serves only 4
		"?k=zz":            CodeBadRequest,
		"?mode=up":         CodeBadRequest,
		"?cuts=0":          CodeBadRequest,
		"?insert=q":        CodeBadRequest,
	} {
		rec := postReq(h, "/v2/map"+q, "text/plain", aag.String())
		if decodeEnvelope(t, rec.Body.Bytes()).Code != code {
			t.Fatalf("%s: %s", q, rec.Body)
		}
	}

	// JSON uploads are rejected: the body is a circuit.
	rec = postReq(h, "/v2/map", "application/json", aag.String())
	if rec.Code != 415 {
		t.Fatalf("json upload: %d", rec.Code)
	}

	// A garbage circuit is bad_circuit.
	rec = postReq(h, "/v2/map", "text/plain", "aag nope")
	if decodeEnvelope(t, rec.Body.Bytes()).Code != CodeBadCircuit {
		t.Fatalf("garbage circuit: %s", rec.Body)
	}

	// An upload past -max-body is body_too_large/413, not bad_circuit:
	// the limit breach must survive to the coded envelope.
	small := HandleMap(MapConfig{MaxBody: 16})
	rec = postReq(small, "/v2/map", "text/plain", aag.String())
	if rec.Code != 413 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeBodyTooLarge {
		t.Fatalf("oversized circuit: %d %s", rec.Code, rec.Body)
	}

	// No insert hook: ?insert=true is read_only, plain mapping still fine.
	ro := HandleMap(MapConfig{})
	rec = postReq(ro, "/v2/map?insert=true", "text/plain", aag.String())
	if rec.Code != 403 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeReadOnly {
		t.Fatalf("read_only map insert: %d %s", rec.Code, rec.Body)
	}
	rec = postReq(ro, "/v2/map", "text/plain", aag.String())
	if rec.Code != 200 {
		t.Fatalf("read-only plain map: %d %s", rec.Code, rec.Body)
	}
}

// TestWitnessRoundTrip: the wire witness encodes and decodes to the same
// transform, and rejects malformed perms.
func TestWitnessRoundTrip(t *testing.T) {
	w := &Witness{Perm: []int{2, 0, 1, 3}, NegMask: 0b1010, OutNeg: true}
	tr, err := w.Transform()
	if err != nil {
		t.Fatal(err)
	}
	back := NewWitness(tr)
	if fmt.Sprint(back) == "" || back.NegMask != w.NegMask || back.OutNeg != w.OutNeg {
		t.Fatalf("round trip %+v", back)
	}
	for i, p := range back.Perm {
		if p != w.Perm[i] {
			t.Fatalf("perm round trip %v != %v", back.Perm, w.Perm)
		}
	}
	if _, err := (&Witness{Perm: []int{0, 5}}).Transform(); err == nil {
		t.Fatal("out-of-range perm accepted")
	}
}

// TestHexArity checks that HexArity inverts HexDigits over every arity a
// table can have, reads one digit as two variables, and names no arity
// for any other length.
func TestHexArity(t *testing.T) {
	for n := 2; n <= tt.MaxVars; n++ {
		if got, ok := HexArity(HexDigits(n)); !ok || got != n {
			t.Fatalf("HexArity(%d) = (%d, %v), want arity %d", HexDigits(n), got, ok, n)
		}
	}
	for _, d := range []int{-1, 0, 3, 6, 12, 2 * HexDigits(tt.MaxVars)} {
		if n, ok := HexArity(d); ok {
			t.Fatalf("HexArity(%d) named arity %d", d, n)
		}
	}
}
