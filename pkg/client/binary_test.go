// Binary-transport negotiation from the client's side: parity with the
// JSON envelope against a real server, a refusal surfacing as the
// server's error, and the cases that must skip binary up front.
package client_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/federation"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/pkg/client"
)

// newSingleServer serves arity n alone — a one-arity federation — and
// exposes the URL, so a test can point differently-configured clients at
// one server.
func newSingleServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	reg, err := federation.New(n, n, federation.Options{
		Store:   store.Options{Shards: 4},
		Service: service.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(federation.NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv
}

// TestBinaryTransportParity: the binary-negotiating client and a
// JSON-pinned client see byte-identical classify and insert responses
// from the same server, and binary-delivered witnesses replay.
func TestBinaryTransportParity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	srv := newSingleServer(t, 6)
	bc := client.New(srv.URL)
	jc := client.New(srv.URL, client.WithJSONTransport())

	var hexes []string
	for i := 0; i < 8; i++ {
		hexes = append(hexes, tt.Random(6, rng).Hex())
	}
	bi, err := bc.Insert(ctx, hexes[:4])
	if err != nil {
		t.Fatal(err)
	}
	if bi.Results[0].Class == "" || !bi.Results[0].New {
		t.Fatalf("first insert not created: %+v", bi.Results[0])
	}
	// Re-inserting the same batch over each transport is idempotent and
	// must produce identical (all-existing) responses.
	bi2, err := bc.Insert(ctx, hexes[:4])
	if err != nil {
		t.Fatal(err)
	}
	ji2, err := jc.Insert(ctx, hexes[:4])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bi2, ji2) {
		t.Fatalf("insert responses diverge:\nbinary: %+v\n  json: %+v", bi2, ji2)
	}
	if bi2.Results[0].New {
		t.Fatalf("re-insert reported new: %+v", bi2.Results[0])
	}

	bcls, err := bc.Classify(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	jcls, err := jc.Classify(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bcls, jcls) {
		t.Fatalf("classify responses diverge:\nbinary: %+v\n  json: %+v", bcls, jcls)
	}
	hits := 0
	for _, it := range bcls.Results {
		if it.Hit {
			hits++
			if err := client.ReplayWitness(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits < 4 {
		t.Fatalf("%d hits, want at least the 4 inserted", hits)
	}
}

// jsonOnlyServer mimics a server that speaks only JSON: a binary
// Content-Type is refused with the unsupported_media_type envelope, JSON
// is served.
type jsonOnlyServer struct {
	requests atomic.Int32
	binary   atomic.Int32
}

func (s *jsonOnlyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Header.Get("Content-Type") != "application/json" {
		s.binary.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnsupportedMediaType)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{
			Error: api.Errf(api.CodeUnsupportedMediaType, "use application/json"),
		})
		return
	}
	var req api.BatchRequest
	json.NewDecoder(r.Body).Decode(&req)
	items := make([]api.ClassifyItem, len(req.Functions))
	for i, fn := range req.Functions {
		items[i] = api.ClassifyItem{Function: fn, Class: api.KeyHex(1)}
	}
	api.WriteJSON(w, http.StatusOK, api.ClassifyResponse{Results: items})
}

// TestBinaryRefusalSurfaces: a server that refuses the binary frame
// answers with its own unsupported_media_type error, which the client
// returns after that one request — it does not retry the batch as JSON.
func TestBinaryRefusalSurfaces(t *testing.T) {
	ctx := context.Background()
	backend := &jsonOnlyServer{}
	srv := httptest.NewServer(backend)
	defer srv.Close()
	c := client.New(srv.URL)
	fns := []string{tt.Random(6, rand.New(rand.NewSource(92))).Hex()}

	_, err := c.Classify(ctx, fns)
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeUnsupportedMediaType {
		t.Fatalf("err = %v, want unsupported_media_type api.Error", err)
	}
	if got, bin := backend.requests.Load(), backend.binary.Load(); got != 1 || bin != 1 {
		t.Fatalf("%d requests (%d binary), want 1 (1 binary)", got, bin)
	}
}

// TestBinarySkipsAmbiguousHex: a batch containing a one-digit table
// (arity ambiguous across 0..2) goes straight to JSON.
func TestBinarySkipsAmbiguousHex(t *testing.T) {
	ctx := context.Background()
	backend := &jsonOnlyServer{}
	srv := httptest.NewServer(backend)
	defer srv.Close()
	c := client.New(srv.URL)

	if _, err := c.Classify(ctx, []string{"8"}); err != nil {
		t.Fatal(err)
	}
	if bin := backend.binary.Load(); bin != 0 {
		t.Fatalf("%d binary probes for an ambiguous batch, want 0", bin)
	}
	// Bad hex and non-power-of-two lengths also stay JSON, so the
	// server's canonical per-item errors are preserved.
	if _, err := c.Classify(ctx, []string{"zz", "abc"}); err != nil {
		t.Fatal(err)
	}
	if bin := backend.binary.Load(); bin != 0 {
		t.Fatalf("%d binary probes for unframeable batches, want 0", bin)
	}
}

// TestBinaryErrorParity: envelope-level failures surface as the same
// *api.Error over the binary path as over JSON.
func TestBinaryErrorParity(t *testing.T) {
	ctx := context.Background()
	srv := newSingleServer(t, 6)
	bc := client.New(srv.URL)

	// Per-item arity error inside a valid binary frame (server serves
	// only n=6; send n=4).
	cls, err := bc.Classify(ctx, []string{tt.Random(4, rand.New(rand.NewSource(93))).Hex()})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Errors != 1 || cls.Results[0].Error == nil || cls.Results[0].Error.Code != api.CodeArityOutOfRange {
		t.Fatalf("per-item arity error: %+v", cls.Results[0])
	}
}
