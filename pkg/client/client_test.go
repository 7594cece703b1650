// The pkg/client round-trip suite: the official client against every
// server role it claims to speak to — a single-arity server (a one-arity
// federation), a federated registry, and a replication follower in both
// -follow-modes —
// including mid-batch per-item errors and batches longer than
// api.MaxBatch.
package client_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/federation"
	"repro/internal/npn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/internal/wal"
	"repro/pkg/client"
)

func newSingle(t *testing.T, n int) *client.Client {
	t.Helper()
	return client.New(newSingleServer(t, n).URL)
}

func newFederated(t *testing.T) *client.Client {
	t.Helper()
	reg, err := federation.New(4, 8, federation.Options{Store: store.Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(federation.NewHandler(reg))
	t.Cleanup(srv.Close)
	return client.New(srv.URL)
}

// newPrimaryAndFollower builds a durable primary (per-append fsync, so a
// SyncOnce immediately sees every acknowledged insert) and a follower of
// it in the given mode. The primary's server is returned so tests can
// kill it.
func newPrimaryAndFollower(t *testing.T, mode replica.Mode) (pc, fc *client.Client, fol *replica.Follower, psrv *httptest.Server) {
	t.Helper()
	preg, err := federation.New(4, 6, federation.Options{
		Store: store.Options{Shards: 4},
		Data:  t.TempDir(),
		WAL:   wal.Options{SegmentBytes: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { preg.Close() })
	psrv = httptest.NewServer(federation.NewHandler(preg))
	t.Cleanup(psrv.Close)

	freg, err := federation.New(4, 6, federation.Options{
		Store: store.Options{Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol = replica.New(freg, replica.Options{Primary: psrv.URL, Mode: mode})
	fsrv := httptest.NewServer(replica.NewHandlerOpts(fol, federation.HandlerOptions{}))
	t.Cleanup(fsrv.Close)
	return client.New(psrv.URL), client.New(fsrv.URL), fol, psrv
}

// roundTrip drives the shared correctness scenario against any server:
// insert a batch, classify NPN variants, demand identity equality and a
// locally-replayable witness, and check mid-batch per-item errors.
func roundTrip(t *testing.T, c *client.Client, fns []*tt.TT, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	hexes := make([]string, len(fns))
	for i, f := range fns {
		hexes[i] = f.Hex()
	}
	ins, err := c.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 || len(ins.Results) != len(fns) {
		t.Fatalf("insert %+v", ins)
	}

	variants := make([]string, len(fns))
	for i, f := range fns {
		variants[i] = npn.RandomTransform(f.NumVars(), rng).Apply(f).Hex()
	}
	cls, err := c.Classify(ctx, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit || r.Class != ins.Results[i].Class || *r.Index != ins.Results[i].Index {
			t.Fatalf("variant %d: %+v, inserted (%s,%d)", i, r, ins.Results[i].Class, ins.Results[i].Index)
		}
		if err := client.ReplayWitness(r); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}

	// Mid-batch per-item error: the bad middle entry must not take the
	// good neighbors down.
	mixed, err := c.Classify(ctx, []string{variants[0], "zz!", variants[len(variants)-1]})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Errors != 1 || mixed.Results[1].Error == nil {
		t.Fatalf("mid-batch error: %+v", mixed)
	}
	if !mixed.Results[0].Hit || !mixed.Results[2].Hit {
		t.Fatalf("good neighbors failed: %+v", mixed.Results)
	}
}

func TestSingleArityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	c := newSingle(t, 5)
	var fns []*tt.TT
	for i := 0; i < 6; i++ {
		fns = append(fns, tt.Random(5, rng))
	}
	roundTrip(t, c, fns, rng)

	// Single-arity resolution: a wrong-length table is per-item
	// arity_out_of_range.
	cls, err := c.Classify(context.Background(), []string{"1ee1"})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Results[0].Error == nil || cls.Results[0].Error.Code != api.CodeArityOutOfRange {
		t.Fatalf("wrong-length item: %+v", cls.Results[0])
	}

	spec, err := c.Spec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Role != "federated" {
		t.Fatalf("spec role %q", spec.Role)
	}
	status, raw, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		MinVars int   `json:"min_vars"`
		MaxVars int   `json:"max_vars"`
		Active  []int `json:"active"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || health.MinVars != 5 || health.MaxVars != 5 || len(health.Active) != 1 || health.Active[0] != 5 {
		t.Fatalf("healthz %d %s", status, raw)
	}
}

func TestFederatedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	c := newFederated(t)
	var fns []*tt.TT
	for n := 4; n <= 8; n++ {
		fns = append(fns, tt.Random(n, rng), tt.Random(n, rng))
	}
	roundTrip(t, c, fns, rng)
}

func TestFollowerLocalMode(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	pc, fc, fol, _ := newPrimaryAndFollower(t, replica.ModeLocal)

	var hexes []string
	for n := 4; n <= 6; n++ {
		hexes = append(hexes, tt.Random(n, rng).Hex())
	}
	ins, err := pc.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Replicated classes hit locally with the primary's identity.
	cls, err := fc.Classify(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cls.Results {
		if !r.Hit || r.Class != ins.Results[i].Class || *r.Index != ins.Results[i].Index {
			t.Fatalf("follower item %d: %+v", i, r)
		}
		if err := client.ReplayWitness(r); err != nil {
			t.Fatal(err)
		}
	}

	// A local-mode follower refuses writes with the stable code.
	_, err = fc.Insert(ctx, []string{tt.Random(4, rng).Hex()})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeReadOnly {
		t.Fatalf("local-mode insert error: %v", err)
	}
	// ...and answers misses locally as misses.
	miss, err := fc.Classify(ctx, []string{tt.Random(6, rng).Hex()})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Results[0].Hit {
		t.Fatal("unreplicated class hit in local mode")
	}
}

func TestFollowerProxyMode(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(84))
	pc, fc, fol, psrv := newPrimaryAndFollower(t, replica.ModeProxy)

	// An insert through the follower is forwarded to the primary.
	f := tt.Random(5, rng)
	ins, err := fc.Insert(ctx, []string{f.Hex()})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 || !ins.Results[0].New {
		t.Fatalf("proxied insert %+v", ins)
	}
	direct, err := pc.Classify(ctx, []string{f.Hex()})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Results[0].Hit || direct.Results[0].Class != ins.Results[0].Class {
		t.Fatalf("insert did not land on the primary: %+v", direct.Results[0])
	}

	// A classify miss on the not-yet-synced follower is re-asked of the
	// primary and merged: the fresh class still hits, witness and all.
	g := tt.Random(6, rng)
	if _, err := pc.Insert(ctx, []string{g.Hex()}); err != nil {
		t.Fatal(err)
	}
	variant := npn.RandomTransform(6, rng).Apply(g).Hex()
	cls, err := fc.Classify(ctx, []string{variant})
	if err != nil {
		t.Fatal(err)
	}
	if !cls.Results[0].Hit {
		t.Fatalf("proxy-merged miss did not hit: %+v", cls.Results[0])
	}
	if err := client.ReplayWitness(cls.Results[0]); err != nil {
		t.Fatal(err)
	}

	// Per-item errors forward too: a refused item from the primary stays
	// a per-item error at the follower.
	mixed, err := fc.Insert(ctx, []string{tt.Random(4, rng).Hex(), "zzzz!"})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Errors != 1 || mixed.Results[1].Error == nil || mixed.Results[0].Error != nil {
		t.Fatalf("proxied per-item errors: %+v", mixed)
	}

	// Sync what exists, then kill the primary: reads degrade gracefully
	// to local answers, writes answer primary_unreachable.
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	psrv.Close()
	after, err := fc.Classify(ctx, []string{f.Hex(), tt.Random(4, rng).Hex()})
	if err != nil {
		t.Fatalf("reads must survive a dead primary: %v", err)
	}
	if !after.Results[0].Hit {
		t.Fatal("replicated class lost after primary death")
	}
	if after.Results[1].Hit {
		t.Fatal("phantom hit after primary death")
	}
	_, err = fc.Insert(ctx, []string{tt.Random(4, rng).Hex()})
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodePrimaryUnreachable {
		t.Fatalf("insert with dead primary: %v", err)
	}
}

// TestLongBatchSplits sends a batch longer than api.MaxBatch, with one
// bad function past the first request's share, through Insert and then
// Classify: each call goes out as exactly two requests and comes back as
// one response, results in input order with the errors summed.
func TestLongBatchSplits(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(85))
	reg, err := federation.New(4, 6, federation.Options{Store: store.Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	requests := map[string]int{}
	inner := federation.NewHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests[r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	n := api.MaxBatch + 37
	fns := make([]string, n)
	for i := range fns {
		fns[i] = tt.Random(4+(i%3), rng).Hex()
	}
	badAt := api.MaxBatch + 3
	fns[badAt] = "zzzz"

	ins, err := c.Insert(ctx, fns)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Results) != n || ins.Errors != 1 {
		t.Fatalf("insert: %d results, %d errors; want %d, 1", len(ins.Results), ins.Errors, n)
	}
	for i, it := range ins.Results {
		if it.Function != fns[i] {
			t.Fatalf("insert result %d answers %q, want %q", i, it.Function, fns[i])
		}
		if i == badAt {
			if it.Error == nil || it.Error.Code != api.CodeBadHex {
				t.Fatalf("bad item %d: %+v", i, it)
			}
		} else if it.Error != nil {
			t.Fatalf("item %d: %+v", i, it.Error)
		}
	}

	cls, err := c.Classify(ctx, fns)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Results) != n || cls.Errors != 1 {
		t.Fatalf("classify: %d results, %d errors; want %d, 1", len(cls.Results), cls.Errors, n)
	}
	for i, it := range cls.Results {
		if it.Function != fns[i] {
			t.Fatalf("classify result %d answers %q, want %q", i, it.Function, fns[i])
		}
		if i == badAt {
			if it.Error == nil || it.Error.Code != api.CodeBadHex {
				t.Fatalf("bad item %d: %+v", i, it)
			}
			continue
		}
		if !it.Hit {
			t.Fatalf("item %d missed after insert", i)
		}
		if err := client.ReplayWitness(it); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if requests["/v2/insert"] != 2 || requests["/v2/classify"] != 2 {
		t.Fatalf("requests per path %v, want 2 to each of /v2/insert and /v2/classify", requests)
	}
}

// flaky503 fails the first reqFails requests with 503, then passes
// through.
type flaky503 struct {
	inner http.Handler
	mu    sync.Mutex
	fails int
}

func (f *flaky503) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail := f.fails > 0
	if fail {
		f.fails--
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, "try later", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestRetries: transient 503s are retried within the budget and surface
// after it.
func TestRetries(t *testing.T) {
	ctx := context.Background()
	reg, err := federation.New(4, 6, federation.Options{Store: store.Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fl := &flaky503{inner: federation.NewHandler(reg), fails: 2}
	srv := httptest.NewServer(fl)
	t.Cleanup(srv.Close)

	c := client.New(srv.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond))
	if _, err := c.Insert(ctx, []string{"1ee1"}); err != nil {
		t.Fatalf("insert did not survive 2 flaps: %v", err)
	}

	fl.mu.Lock()
	fl.fails = 3
	fl.mu.Unlock()
	c0 := client.New(srv.URL, client.WithRetries(0), client.WithBackoff(time.Millisecond))
	if _, err := c0.Insert(ctx, []string{"1ee1"}); err == nil {
		t.Fatal("no-retry client swallowed a 503")
	}
}

// TestEnvelopeErrorsDecode: non-2xx /v2 responses decode into *api.Error
// with their stable codes.
func TestEnvelopeErrorsDecode(t *testing.T) {
	ctx := context.Background()
	c := newFederated(t)
	_, err := c.Classify(ctx, nil)
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeBadRequest {
		t.Fatalf("empty batch error: %v", err)
	}
	_, err = c.Compact(ctx)
	if e, ok := err.(*api.Error); !ok || e.Code != api.CodeNotDurable {
		t.Fatalf("compact on memory registry: %v", err)
	}
}
