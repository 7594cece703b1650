package api

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/npn"
	"repro/internal/tt"
)

// randTables builds count random n-variable tables from a fixed seed.
func randTables(n, count int, seed int64) []*tt.TT {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]*tt.TT, count)
	for i := range fs {
		fs[i] = tt.Random(n, rng)
	}
	return fs
}

// TestBinaryRequestRoundTrip: encode → decode is the identity, with and
// without the CRC trailer, across arities including the sub-byte ones,
// and the frame is exactly as long as docs/WIRE.md lays it out.
func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		for _, crc := range []bool{false, true} {
			fs := randTables(n, 9, int64(100*n))
			frame := EncodeBinaryRequest(fs, crc)
			// 4 header bytes, a one-byte count, then an arity byte and
			// the packed table per function; the CRC trailer adds 4.
			want := 5 + len(fs)*(1+ttBytes(n))
			if crc {
				want += 4
			}
			if got := len(frame); got != want {
				t.Fatalf("n=%d crc=%v: frame is %d bytes, want %d", n, crc, got, want)
			}
			back, gotCRC, err := DecodeBinaryRequest(frame)
			if err != nil {
				t.Fatalf("n=%d crc=%v: decode: %v", n, crc, err)
			}
			if gotCRC != crc {
				t.Fatalf("n=%d: crc echo %v, want %v", n, gotCRC, crc)
			}
			if len(back) != len(fs) {
				t.Fatalf("n=%d: %d tables back, want %d", n, len(back), len(fs))
			}
			for i := range fs {
				if back[i].NumVars() != n || !back[i].Equal(fs[i]) {
					t.Fatalf("n=%d: table %d does not round-trip", n, i)
				}
			}
		}
	}
}

// TestBinaryRequestRejects: every malformed frame fails whole, with no
// panic — truncations at every prefix length, bad magic/version/flags,
// corrupt CRC, trailing garbage, out-of-range arity, dirty padding bits.
func TestBinaryRequestRejects(t *testing.T) {
	good := EncodeBinaryRequest(randTables(4, 3, 7), false)

	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeBinaryRequest(good[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded", cut, len(good))
		}
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, _, err := DecodeBinaryRequest(b); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[2] = BinaryVersion + 1; return b })
	mutate("unknown flag", func(b []byte) []byte { b[3] |= 0x80; return b })
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
	mutate("arity zero", func(b []byte) []byte { b[5] = 0; return b })
	mutate("arity too large", func(b []byte) []byte { b[5] = tt.MaxVars + 1; return b })
	mutate("count lies high", func(b []byte) []byte { b[4] = 200; return b })

	withCRC := EncodeBinaryRequest(randTables(4, 3, 7), true)
	withCRC[len(withCRC)-1] ^= 0xff
	if _, _, err := DecodeBinaryRequest(withCRC); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt CRC: err %v", err)
	}

	// An n=1 table uses 2 of its byte's 8 bits; the rest must be zero.
	dirty := EncodeBinaryRequest(randTables(1, 1, 7), false)
	dirty[len(dirty)-1] |= 0xf0
	if _, _, err := DecodeBinaryRequest(dirty); err == nil {
		t.Fatal("dirty padding bits decoded")
	}

	if _, _, err := DecodeBinaryRequest(appendBinaryHeader(nil, 0, false)); err == nil {
		t.Fatal("zero-function frame decoded")
	}
}

// witness4 is a non-trivial but valid arity-4 witness.
func witness4() npn.Transform {
	w := npn.Identity(4)
	w.Perm[0], w.Perm[3] = 3, 0
	w.NegMask = 0b0101
	w.OutNeg = true
	return w
}

// TestBinaryClassifyRoundTrip covers all three item shapes — miss, hit
// (witness + representative), and a per-item error — surviving the frame.
func TestBinaryClassifyRoundTrip(t *testing.T) {
	rep := randTables(4, 1, 11)[0]
	res := []Result{
		{Key: 0xdeadbeefcafef00d, Hit: false},
		{Key: 42, Hit: true, Index: 3, Rep: rep, Witness: witness4()},
		{}, // slot carried by errs
	}
	errs := []*Error{nil, nil, Errf(CodeBadHex, "nope").WithRequestID("r-1")}

	for _, crc := range []bool{false, true} {
		items, err := DecodeBinaryClassify(EncodeBinaryClassify(res, errs, crc))
		if err != nil {
			t.Fatalf("crc=%v: %v", crc, err)
		}
		if len(items) != 3 {
			t.Fatalf("%d items", len(items))
		}
		if items[0].Hit || items[0].Err != nil || items[0].Key != res[0].Key {
			t.Fatalf("miss item: %+v", items[0])
		}
		hit := items[1]
		if !hit.Hit || hit.Key != 42 || hit.Index != 3 || !hit.Rep.Equal(rep) || hit.Witness != witness4() {
			t.Fatalf("hit item: %+v", hit)
		}
		if e := items[2].Err; e == nil || e.Code != CodeBadHex || e.RequestID != "r-1" {
			t.Fatalf("error item: %+v", items[2].Err)
		}
	}
}

// TestBinaryInsertRoundTrip covers created, existing, per-item error and
// the journal-refused (not_durable) shape.
func TestBinaryInsertRoundTrip(t *testing.T) {
	out := []InsertOutcome{
		{Key: 1, Index: 5, New: true},
		{Key: 2, Index: 0, New: false},
		{Key: 3, Index: -1},
		{},
	}
	errs := []*Error{nil, nil, out[2].itemError(), Errf(CodeArityOutOfRange, "bad arity")}
	items, err := DecodeBinaryInsert(EncodeBinaryInsert(out, errs, true))
	if err != nil {
		t.Fatal(err)
	}
	if !items[0].New || items[0].Index != 5 || items[0].Key != 1 {
		t.Fatalf("created: %+v", items[0])
	}
	if items[1].New || items[1].Index != 0 {
		t.Fatalf("existing: %+v", items[1])
	}
	if e := items[2].Err; e == nil || e.Code != CodeNotDurable {
		t.Fatalf("refused: %+v", items[2])
	}
	if e := items[3].Err; e == nil || e.Code != CodeArityOutOfRange {
		t.Fatalf("error: %+v", items[3])
	}
}

// TestBinaryResponseRejects: response decoders refuse truncation and
// unknown status bytes.
func TestBinaryResponseRejects(t *testing.T) {
	frame := EncodeBinaryClassify([]Result{{Key: 9}}, []*Error{nil}, false)
	for cut := 0; cut < len(frame); cut++ {
		if _, err := DecodeBinaryClassify(frame[:cut]); err == nil {
			t.Fatalf("classify truncation at %d decoded", cut)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[5] = 99
	if _, err := DecodeBinaryClassify(bad); err == nil {
		t.Fatal("unknown classify status decoded")
	}

	iframe := EncodeBinaryInsert([]InsertOutcome{{Key: 9, Index: 1}}, []*Error{nil}, false)
	for cut := 0; cut < len(iframe); cut++ {
		if _, err := DecodeBinaryInsert(iframe[:cut]); err == nil {
			t.Fatalf("insert truncation at %d decoded", cut)
		}
	}
	ibad := append([]byte(nil), iframe...)
	ibad[5] = binStatusMiss // miss is not a valid insert status
	if _, err := DecodeBinaryInsert(ibad); err == nil {
		t.Fatal("unknown insert status decoded")
	}
}

// binPost issues a POST carrying explicit Content-Type and Accept.
func binPost(h http.HandlerFunc, path, contentType, accept string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

// TestBinaryNegotiationMatrix drives HandleClassify through all three
// mixed transport corners: binary request with a JSON response, JSON
// request with a binary response, and binary both ways with the request's
// CRC choice mirrored onto the response.
func TestBinaryNegotiationMatrix(t *testing.T) {
	h := HandleClassify(&fakeBackend{}, 1<<20)
	fs := randTables(4, 2, 21)

	// Binary in, JSON out: items echo the canonical hex.
	rec := binPost(h, "/v2/classify", BinaryContentType, "", EncodeBinaryRequest(fs, false))
	if rec.Code != http.StatusOK {
		t.Fatalf("binary->json: %d %s", rec.Code, rec.Body)
	}
	var cresp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if len(cresp.Results) != 2 || cresp.Results[0].Function != fs[0].Hex() || cresp.Results[0].Class != KeyHex(42) {
		t.Fatalf("binary->json items: %+v", cresp.Results)
	}

	// JSON in, binary out.
	jsonBody, _ := json.Marshal(BatchRequest{Functions: []string{fs[0].Hex(), fs[1].Hex()}})
	rec = binPost(h, "/v2/classify", "application/json", BinaryContentType, jsonBody)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != BinaryContentType {
		t.Fatalf("json->binary: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	items, err := DecodeBinaryClassify(rec.Body.Bytes())
	if err != nil || len(items) != 2 || items[0].Key != 42 || items[0].Hit {
		t.Fatalf("json->binary items: %v %+v", err, items)
	}

	// Binary both ways, CRC mirrored from the request frame.
	rec = binPost(h, "/v2/classify", BinaryContentType, BinaryContentType, EncodeBinaryRequest(fs, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("binary->binary: %d %s", rec.Code, rec.Body)
	}
	if rec.Body.Bytes()[3]&binFlagCRC == 0 {
		t.Fatal("response frame does not mirror the request CRC flag")
	}
	if _, err := DecodeBinaryClassify(rec.Body.Bytes()); err != nil {
		t.Fatalf("binary->binary decode: %v", err)
	}

	// Insert side: binary both ways through the shared negotiation path.
	ih := HandleInsert(&fakeBackend{}, 1<<20)
	rec = binPost(ih, "/v2/insert", BinaryContentType, BinaryContentType, EncodeBinaryRequest(fs, false))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert binary->binary: %d %s", rec.Code, rec.Body)
	}
	ins, err := DecodeBinaryInsert(rec.Body.Bytes())
	if err != nil || len(ins) != 2 || !ins[0].New || ins[0].Key != 7 {
		t.Fatalf("insert items: %v %+v", err, ins)
	}
}

// TestBinaryNegotiationErrors: a malformed frame is a whole-request JSON
// bad_request envelope even when the client asked for binary back, and an
// unserved arity inside a valid frame is a per-item error on both
// response transports.
func TestBinaryNegotiationErrors(t *testing.T) {
	h := HandleClassify(&fakeBackend{}, 1<<20)

	rec := binPost(h, "/v2/classify", BinaryContentType, BinaryContentType, []byte("XX garbage"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad frame: %d", rec.Code)
	}
	if e := decodeEnvelope(t, rec.Body.Bytes()); e.Code != CodeBadRequest {
		t.Fatalf("bad frame code: %s", e.Code)
	}

	// fakeBackend serves arity 4 only; an arity-3 table fails its item.
	mixed := []*tt.TT{randTables(4, 1, 3)[0], randTables(3, 1, 3)[0]}
	rec = binPost(h, "/v2/classify", BinaryContentType, BinaryContentType, EncodeBinaryRequest(mixed, false))
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed arities: %d %s", rec.Code, rec.Body)
	}
	items, err := DecodeBinaryClassify(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[1].Err == nil || items[1].Err.Code != CodeArityOutOfRange {
		t.Fatalf("per-item arity error: %+v", items)
	}

	rec = binPost(h, "/v2/classify", BinaryContentType, "", EncodeBinaryRequest(mixed, false))
	var cresp ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.Errors != 1 || cresp.Results[1].Error == nil || cresp.Results[1].Error.Code != CodeArityOutOfRange {
		t.Fatalf("per-item arity error over JSON: %+v", cresp)
	}
}

// TestBinaryCodecAllocs gates the codec hot paths: one allocation to
// encode a frame (its exact-size buffer), a small fixed overhead plus the
// tables themselves to decode.
func TestBinaryCodecAllocs(t *testing.T) {
	fs := randTables(6, 16, 31)
	frame := EncodeBinaryRequest(fs, true)
	res := make([]Result, len(fs))
	for i := range res {
		res[i] = Result{Key: uint64(i) * 0x9e3779b97f4a7c15, Hit: false}
	}
	errs := make([]*Error, len(fs))
	respFrame := EncodeBinaryClassify(res, errs, false)

	if n := testing.AllocsPerRun(200, func() { EncodeBinaryRequest(fs, true) }); n > 1 {
		t.Errorf("EncodeBinaryRequest: %.1f allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { EncodeBinaryClassify(res, errs, false) }); n > 1 {
		t.Errorf("EncodeBinaryClassify: %.1f allocs/op, want <= 1", n)
	}
	decBound := float64(3*len(fs) + 2)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeBinaryRequest(frame); err != nil {
			t.Fatal(err)
		}
	}); n > decBound {
		t.Errorf("DecodeBinaryRequest: %.1f allocs/op, want <= %.0f", n, decBound)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBinaryClassify(respFrame); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeBinaryClassify (all misses): %.1f allocs/op, want <= 2", n)
	}
}

// FuzzBinaryDecoders feeds arbitrary bytes to all three frame decoders:
// none may panic, and any request frame that decodes must re-encode to
// the identical bytes (the format has one canonical encoding).
func FuzzBinaryDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NB"))
	f.Add(EncodeBinaryRequest(randTables(4, 3, 41), false))
	f.Add(EncodeBinaryRequest(randTables(1, 2, 43), true))
	f.Add(EncodeBinaryClassify(
		[]Result{{Key: 42, Hit: true, Index: 1, Rep: randTables(4, 1, 45)[0], Witness: witness4()}},
		[]*Error{nil}, true))
	f.Add(EncodeBinaryInsert([]InsertOutcome{{Key: 3, Index: -1}}, []*Error{nil}, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		if fs, crc, err := DecodeBinaryRequest(data); err == nil {
			again := EncodeBinaryRequest(fs, crc)
			if !bytes.Equal(again, data) {
				t.Fatalf("request re-encode differs:\n in: %x\nout: %x", data, again)
			}
		}
		DecodeBinaryClassify(data)
		DecodeBinaryInsert(data)
	})
}
