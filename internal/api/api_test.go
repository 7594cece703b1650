package api

import (
	"bufio"
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
	classifyCalls int
	insertCalls   int
	// insertErr fails every Insert as a whole batch.
	insertErr *Error
	// failOnCall, when > 0, fails that Classify call (1-based).
	failOnCall int
}

func (b *fakeBackend) Resolve(s string) (*tt.TT, *Error) {
	if len(s) != HexDigits(4) {
		return nil, Errf(CodeArityOutOfRange, "want %d digits", HexDigits(4))
	}
	f, err := tt.FromHex(4, s)
	if err != nil {
		return nil, Errf(CodeBadHex, "%v", err)
	}
	return f, nil
}

func (b *fakeBackend) CheckArity(n int) *Error {
	if n != 4 {
		return Errf(CodeArityOutOfRange, "arity %d; want 4", n)
	}
	return nil
}

func (b *fakeBackend) Classify(_ context.Context, fs []*tt.TT) ([]Result, *Error) {
	b.classifyCalls++
	if b.failOnCall > 0 && b.classifyCalls == b.failOnCall {
		return nil, Errf(CodeInternal, "injected failure")
	}
	out := make([]Result, len(fs))
	for i := range out {
		out[i] = Result{Key: 42, Hit: false}
	}
	return out, nil
}

func (b *fakeBackend) Insert(_ context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
	b.insertCalls++
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

// TestStreamChunksAndOrder: the NDJSON handler chunks a long input,
// answers one line per input in order, and carries per-item errors
// inline.
func TestStreamChunksAndOrder(t *testing.T) {
	b := &fakeBackend{}
	n := StreamChunk*2 + 7
	var in strings.Builder
	for i := 0; i < n; i++ {
		if i == 5 {
			in.WriteString("zzzz\n") // bad hex: inline item error
			continue
		}
		fmt.Fprintf(&in, "%04x\n", i&0xffff)
	}
	rec := postReq(HandleClassifyStream(b, DefaultMaxBody), "/v2/classify/stream", NDJSONContentType, in.String())
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String()[:200])
	}
	if got := rec.Header().Get("Content-Type"); got != NDJSONContentType {
		t.Fatalf("response content type %q", got)
	}
	if b.classifyCalls != 3 {
		t.Fatalf("backend saw %d chunks, want 3", b.classifyCalls)
	}
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	lines := 0
	for sc.Scan() {
		var item ClassifyItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if lines == 5 {
			if item.Error == nil || item.Error.Code != CodeBadHex {
				t.Fatalf("line 5 should be an inline bad_hex item: %+v", item)
			}
		} else if item.Error != nil {
			t.Fatalf("line %d unexpected error %+v", lines, item.Error)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("%d response lines for %d inputs", lines, n)
	}
}

// TestStreamQuotedAndBlankLines: NDJSON tooling that quotes values and
// blank separator lines both work.
func TestStreamQuotedAndBlankLines(t *testing.T) {
	b := &fakeBackend{}
	rec := postReq(HandleClassifyStream(b, DefaultMaxBody), "/v2/classify/stream", NDJSONContentType,
		"\"1ee1\"\n\n  8bb8  \n")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := strings.Count(strings.TrimSpace(rec.Body.String()), "\n") + 1; got != 2 {
		t.Fatalf("%d lines: %s", got, rec.Body)
	}
}

// TestStreamWholeBatchError: a whole-batch condition on the first chunk
// claims the real status; after lines have been sent it becomes a
// terminal trailing error line.
func TestStreamWholeBatchError(t *testing.T) {
	// First chunk: proper envelope with status.
	b := &fakeBackend{insertErr: Errf(CodeReadOnly, "nope")}
	rec := postReq(HandleInsertStream(b, DefaultMaxBody), "/v2/insert/stream", NDJSONContentType, "1ee1\n")
	if rec.Code != 403 || decodeEnvelope(t, rec.Body.Bytes()).Code != CodeReadOnly {
		t.Fatalf("pre-commit error: %d %s", rec.Code, rec.Body)
	}

	// Mid-stream: first chunk streams fine, second fails -> trailing
	// error line on a 200.
	cb := &fakeBackend{failOnCall: 2}
	var in strings.Builder
	for i := 0; i < StreamChunk+3; i++ {
		fmt.Fprintf(&in, "%04x\n", i&0xffff)
	}
	rec = postReq(HandleClassifyStream(cb, DefaultMaxBody), "/v2/classify/stream", NDJSONContentType, in.String())
	if rec.Code != 200 {
		t.Fatalf("mid-stream error status %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != StreamChunk+1 {
		t.Fatalf("%d lines, want %d results + 1 trailing error", len(lines), StreamChunk+1)
	}
	last := decodeEnvelope(t, []byte(lines[len(lines)-1]))
	if last.Code != CodeInternal {
		t.Fatalf("trailing error %+v", last)
	}
}

// TestStreamBodyBound: the -max-body bound applies to streams.
func TestStreamBodyBound(t *testing.T) {
	b := &fakeBackend{}
	body := strings.Repeat("1ee1\n", 100)
	rec := postReq(HandleClassifyStream(b, 32), "/v2/classify/stream", NDJSONContentType, body)
	if rec.Code != 413 && !strings.Contains(rec.Body.String(), string(CodeBodyTooLarge)) {
		t.Fatalf("stream body bound: %d %s", rec.Code, rec.Body)
	}
}

// TestMapHandler: parameter validation, content-type gate, verified
// mapping with census, insert callback plumbing, read_only without one.
func TestMapHandler(t *testing.T) {
	var aag strings.Builder
	if err := aig.WriteAAG(&aag, gen.RippleCarryAdder(4)); err != nil {
		t.Fatal(err)
	}
	var inserted []*tt.TT
	h := HandleMap(MapConfig{Insert: func(_ context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
		inserted = fs
		out := make([]InsertOutcome, len(fs))
		for i := range out {
			out[i] = InsertOutcome{New: true}
		}
		return out, nil
	}})

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
		"?k=1":      CodeArityOutOfRange,
		"?k=zz":     CodeBadRequest,
		"?mode=up":  CodeBadRequest,
		"?cuts=0":   CodeBadRequest,
		"?insert=q": CodeBadRequest,
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
