package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/npn"
	"repro/internal/obs"
	"repro/internal/tt"
)

// parityMaxVars is the largest arity parityBackend serves; it serves
// 2..parityMaxVars, so arity parityMaxVars+1 is out of range.
const parityMaxVars = 6

// parityBackend is a deterministic Backend for the transport-parity fuzz
// target. Every outcome is a function of the table alone, so a function
// gets the same answer whichever transport carried it. Classify answers
// misses and hits (a representative and a witness that replays to the
// function); Insert answers created and existing classes, journal
// refusals (not_durable) and relayed per-item errors with a detail.
type parityBackend struct{}

// parityHash is FNV-1a over the arity and the table's words.
func parityHash(f *tt.TT) uint64 {
	h := uint64(14695981039346656037) ^ uint64(f.NumVars())
	for _, w := range f.Words() {
		h = (h ^ w) * 1099511628211
	}
	return h
}

func (parityBackend) CheckArity(n int) *Error {
	if n < 2 || n > parityMaxVars {
		return Errf(CodeArityOutOfRange, "arity %d outside 2..%d", n, parityMaxVars)
	}
	return nil
}

func (parityBackend) Classify(_ context.Context, fs []*tt.TT) ([]Result, *Error) {
	out := make([]Result, len(fs))
	for i, f := range fs {
		h := parityHash(f)
		if h%3 == 0 {
			out[i] = Result{Key: h}
			continue
		}
		w := npn.RandomTransform(f.NumVars(), rand.New(rand.NewSource(int64(h))))
		out[i] = Result{Key: h, Index: int(h >> 40 % 4), Hit: true, Rep: w.Invert().Apply(f), Witness: w}
	}
	return out, nil
}

func (parityBackend) Insert(_ context.Context, fs []*tt.TT) ([]InsertOutcome, *Error) {
	out := make([]InsertOutcome, len(fs))
	for i, f := range fs {
		h := parityHash(f)
		switch h % 4 {
		case 0, 1:
			out[i] = InsertOutcome{Key: h, Index: int(h >> 40 % 4), New: h%4 == 0}
		case 2:
			out[i] = InsertOutcome{Key: h, Index: -1}
		case 3:
			out[i] = InsertOutcome{Index: -1, Err: Errf(CodeNotDurable, "relayed refusal of %016x", h).
				WithDetail("primary journal").WithRequestID("primary-request")}
		}
	}
	return out, nil
}

// parityItem is one response item reduced to what both response
// transports carry: an error item is its error object alone (the JSON
// not_durable item's class and index -1 have no binary counterpart), any
// other item its outcome.
type parityItem struct {
	Failed  bool
	Err     Error
	Key     uint64
	Index   int
	Hit     bool
	New     bool
	Rep     string
	Witness npn.Transform
}

func failedItem(e *Error) parityItem { return parityItem{Failed: true, Err: *e} }

// parityOp is one batch endpoint with its decoders from either response
// transport to parity items.
type parityOp struct {
	name   string
	handle func(Backend, int64) http.HandlerFunc
	// fromJSON also returns the response's errors count.
	fromJSON   func(t *testing.T, body []byte) ([]parityItem, int)
	fromBinary func(t *testing.T, body []byte) []parityItem
}

var parityOps = []parityOp{
	{
		name:   "classify",
		handle: HandleClassify,
		fromJSON: func(t *testing.T, body []byte) ([]parityItem, int) {
			var resp ClassifyResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("classify JSON response: %v: %s", err, body)
			}
			items := make([]parityItem, len(resp.Results))
			for i, it := range resp.Results {
				if it.Error != nil {
					items[i] = failedItem(it.Error)
					continue
				}
				key, err := strconv.ParseUint(it.Class, 16, 64)
				if err != nil {
					t.Fatalf("classify item %d: class %q: %v", i, it.Class, err)
				}
				items[i] = parityItem{Key: key, Hit: it.Hit}
				if it.Hit {
					w, err := it.Witness.Transform()
					if err != nil || it.Index == nil {
						t.Fatalf("classify hit %d: witness %v, index %v", i, err, it.Index)
					}
					items[i].Index, items[i].Rep, items[i].Witness = *it.Index, it.Rep, w
				}
			}
			return items, resp.Errors
		},
		fromBinary: func(t *testing.T, body []byte) []parityItem {
			bin, err := DecodeBinaryClassify(body)
			if err != nil {
				t.Fatalf("classify binary response: %v", err)
			}
			items := make([]parityItem, len(bin))
			for i, it := range bin {
				switch {
				case it.Err != nil:
					items[i] = failedItem(it.Err)
				case it.Hit:
					items[i] = parityItem{Key: it.Key, Hit: true, Index: it.Index, Rep: it.Rep.Hex(), Witness: it.Witness}
				default:
					items[i] = parityItem{Key: it.Key}
				}
			}
			return items
		},
	},
	{
		name:   "insert",
		handle: HandleInsert,
		fromJSON: func(t *testing.T, body []byte) ([]parityItem, int) {
			var resp InsertResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("insert JSON response: %v: %s", err, body)
			}
			items := make([]parityItem, len(resp.Results))
			for i, it := range resp.Results {
				if it.Error != nil {
					items[i] = failedItem(it.Error)
					continue
				}
				key, err := strconv.ParseUint(it.Class, 16, 64)
				if err != nil {
					t.Fatalf("insert item %d: class %q: %v", i, it.Class, err)
				}
				items[i] = parityItem{Key: key, Index: it.Index, New: it.New}
			}
			return items, resp.Errors
		},
		fromBinary: func(t *testing.T, body []byte) []parityItem {
			bin, err := DecodeBinaryInsert(body)
			if err != nil {
				t.Fatalf("insert binary response: %v", err)
			}
			items := make([]parityItem, len(bin))
			for i, it := range bin {
				if it.Err != nil {
					items[i] = failedItem(it.Err)
					continue
				}
				items[i] = parityItem{Key: it.Key, Index: it.Index, New: it.New}
			}
			return items
		},
	},
}

// parityInputs turns fuzz bytes into one batch. Each item is a selector
// byte — arity 2 + s%6, so parityMaxVars+1 is unserved; bit 7 puts an
// invalid hex string in front of the function on the JSON side only —
// followed by the function's packed table bytes, zero-filled once data
// runs out. hexes is the JSON request's function list and injected marks
// its invalid-hex entries.
func parityInputs(data []byte) (fs []*tt.TT, hexes []string, injected []bool) {
	for len(data) > 0 && len(fs) < 16 {
		s := data[0]
		data = data[1:]
		n := 2 + int(s%6)
		if s&0x80 != 0 {
			hexes = append(hexes, strings.Repeat("z", HexDigits(n)))
			injected = append(injected, true)
		}
		raw := make([]byte, ttBytes(n))
		data = data[copy(raw, data):]
		if n < 3 {
			raw[0] &= 1<<(1<<n) - 1
		}
		f, err := readTT(n, raw)
		if err != nil {
			panic(err) // the padding bits were just cleared
		}
		fs = append(fs, f)
		hexes = append(hexes, f.Hex())
		injected = append(injected, false)
	}
	return fs, hexes, injected
}

// postAs POSTs body with the given Content-Type under request ID reqID,
// as the obs middleware would stamp it, asking for a binary response
// when binResp is set.
func postAs(h http.HandlerFunc, reqID, path, contentType string, binResp bool, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req = req.WithContext(obs.ContextWithRequestID(req.Context(), reqID))
	req.Header.Set("Content-Type", contentType)
	if binResp {
		req.Header.Set("Accept", BinaryContentType)
	}
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

// FuzzTransportParity sends one batch through /v2/classify and
// /v2/insert on all four transport corners. Check 1: for one request
// body, the JSON and the binary response decode to identical items,
// error objects included (code, message, detail, request_id). Check 2:
// across the two request transports, whole items are identical once the
// JSON-only invalid-hex items are set aside: both transports ask the
// backend's CheckArity about each function's arity, so an unserved arity
// gets the same error object whether a hex length or an arity byte named
// it. Every per-item error carries the request's ID.
func FuzzTransportParity(f *testing.F) {
	f.Add([]byte{0x02, 0x1e, 0xe1})
	f.Add([]byte{0x82, 0x1e, 0xe1, 0x03, 0xca, 0xfe, 0xf0, 0x0d, 0x05, 0x96})
	f.Add([]byte{0x00, 0x06, 0x01, 0x07, 0x02, 0x08, 0x03, 0x09, 0x04, 0x8a, 0x05, 0x0b})
	f.Add(bytes.Repeat([]byte{0x84, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc, 0x99, 0x66}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, hexes, injected := parityInputs(data)
		if len(fs) == 0 {
			return
		}
		const reqID = "fuzz-request"
		jsonBody, err := json.Marshal(BatchRequest{Functions: hexes})
		if err != nil {
			t.Fatal(err)
		}
		binBody := EncodeBinaryRequest(fs, len(data)%2 == 1)

		for _, op := range parityOps {
			handler := op.handle(parityBackend{}, 1<<24)
			post := func(contentType string, body []byte, binResp bool) []byte {
				rec := postAs(handler, reqID, "/v2/"+op.name, contentType, binResp, body)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s (binary response %v): status %d: %s", op.name, contentType, binResp, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}

			var perRequest [2][]parityItem
			for r, ct := range []string{"application/json", BinaryContentType} {
				body := jsonBody
				if ct == BinaryContentType {
					body = binBody
				}
				viaJSON, nErr := op.fromJSON(t, post(ct, body, false))
				viaBinary := op.fromBinary(t, post(ct, body, true))
				if len(viaJSON) != len(viaBinary) {
					t.Fatalf("%s %s: %d JSON items, %d binary items", op.name, ct, len(viaJSON), len(viaBinary))
				}
				failed := 0
				for i := range viaJSON {
					if viaJSON[i] != viaBinary[i] {
						t.Fatalf("%s %s item %d: JSON response %+v, binary response %+v", op.name, ct, i, viaJSON[i], viaBinary[i])
					}
					if viaJSON[i].Failed {
						failed++
						if viaJSON[i].Err.RequestID != reqID {
							t.Fatalf("%s %s item %d: error %+v lacks request_id %q", op.name, ct, i, viaJSON[i].Err, reqID)
						}
					}
				}
				if nErr != failed {
					t.Fatalf("%s %s: errors = %d, %d error items", op.name, ct, nErr, failed)
				}
				perRequest[r] = viaJSON
			}

			var fromJSONReq []parityItem
			for i, it := range perRequest[0] {
				if injected[i] {
					if !it.Failed {
						t.Fatalf("%s: invalid hex %q did not fail its item: %+v", op.name, hexes[i], it)
					}
					continue
				}
				fromJSONReq = append(fromJSONReq, it)
			}
			if len(fromJSONReq) != len(perRequest[1]) {
				t.Fatalf("%s: %d items from the JSON request, %d from the binary request", op.name, len(fromJSONReq), len(perRequest[1]))
			}
			for i, it := range fromJSONReq {
				if it != perRequest[1][i] {
					t.Fatalf("%s item %d: JSON request gave %+v, binary request %+v", op.name, i, it, perRequest[1][i])
				}
			}
		}
	})
}
