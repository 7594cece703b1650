package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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
)

// newPrimary builds a durable federated registry (tiny segments so
// rotation and compaction kick in fast) behind a real HTTP server.
func newPrimary(t *testing.T) (*federation.Registry, *httptest.Server) {
	t.Helper()
	reg, err := federation.New(4, 6, federation.Options{
		Store: store.Options{Shards: 4},
		Data:  t.TempDir(),
		WAL:   wal.Options{SegmentBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(federation.NewHandler(reg))
	t.Cleanup(srv.Close)
	return reg, srv
}

// newFollower builds a follower registry over the primary URL.
func newFollower(t *testing.T, primary string, mode replica.Mode, stale time.Duration) (*replica.Follower, *httptest.Server) {
	t.Helper()
	reg, err := federation.New(4, 6, federation.Options{
		Store: store.Options{Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := replica.New(reg, replica.Options{Primary: primary, Mode: mode, StaleAfter: stale})
	srv := httptest.NewServer(replica.NewHandlerOpts(f, federation.HandlerOptions{}))
	t.Cleanup(srv.Close)
	return f, srv
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func classify(t *testing.T, url string, fns []string) api.ClassifyResponse {
	t.Helper()
	resp, body := post(t, url+"/v2/classify", api.BatchRequest{Functions: fns})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, body)
	}
	var cls api.ClassifyResponse
	if err := json.Unmarshal(body, &cls); err != nil {
		t.Fatal(err)
	}
	if cls.Errors != 0 {
		t.Fatalf("classify item errors: %s", body)
	}
	return cls
}

// errorCode decodes a /v2 error envelope's code.
func errorCode(t *testing.T, body []byte) api.Code {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return env.Error.Code
}

// classes counts the classes stored across reg's active arities.
func classes(t *testing.T, reg *federation.Registry) int {
	t.Helper()
	total := 0
	for _, n := range reg.Active() {
		svc, err := reg.Service(n)
		if err != nil {
			t.Fatal(err)
		}
		total += svc.Store().Size()
	}
	return total
}

// TestFollowerEndToEnd is the replication acceptance scenario: a
// follower started after N inserts converges to the primary's classes
// with identical (class, index) identities, resumes tailing across new
// inserts and a compaction, reports lag in its Stats snapshot, and keeps
// serving reads after the primary dies.
func TestFollowerEndToEnd(t *testing.T) {
	preg, psrv := newPrimary(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))

	// N inserts before the follower exists, enough to rotate segments.
	var fs []*tt.TT
	for i := 0; i < 60; i++ {
		fs = append(fs, tt.Random(4+i%3, rng))
	}
	ins, err := preg.InsertCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}

	fol, fsrv := newFollower(t, psrv.URL, replica.ModeLocal, 0)
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Convergence: same class count...
	pTotal, fTotal := classes(t, preg), classes(t, fol.Registry())
	if pTotal == 0 || fTotal != pTotal {
		t.Fatalf("follower holds %d classes, primary %d", fTotal, pTotal)
	}
	// ...and identical identities for NPN variants, served locally.
	var variants []string
	for _, f := range fs {
		variants = append(variants, npn.RandomTransform(f.NumVars(), rng).Apply(f).Hex())
	}
	cls := classify(t, fsrv.URL, variants)
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("variant %d missed on follower", i)
		}
		want := fmt.Sprintf("%016x", ins[i].Key)
		if r.Class != want || *r.Index != ins[i].Index {
			t.Fatalf("variant %d identity (%s,%d), primary inserted (%s,%d)", i, r.Class, *r.Index, want, ins[i].Index)
		}
	}

	// Tail resume: more inserts land, the next sync picks them up from
	// the saved mid-segment offset.
	extra := []*tt.TT{tt.Random(5, rng), tt.Random(6, rng)}
	if _, err := preg.InsertCtx(ctx, extra); err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	cls = classify(t, fsrv.URL, []string{extra[0].Hex(), extra[1].Hex()})
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("post-resume insert %d missed on follower", i)
		}
	}

	// Compaction: sealed segments fold into the snapshot and vanish; the
	// follower re-bootstraps (idempotently) and keeps converging.
	if _, err := preg.CompactAll(); err != nil {
		t.Fatal(err)
	}
	after := []*tt.TT{tt.Random(4, rng)}
	if _, err := preg.InsertCtx(ctx, after); err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := classes(t, fol.Registry()), classes(t, preg); got != want {
		t.Fatalf("after compaction follower holds %d classes, primary %d", got, want)
	}

	// Stats snapshot: lag in segments/bytes. A pass that finds nothing
	// new reports zero lag.
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := fol.Stats()
	if st.Syncs == 0 {
		t.Fatalf("replication stats %+v", st)
	}
	if st.LagSegments != 0 || st.LagBytes != 0 {
		t.Fatalf("caught-up follower reports lag %d segments / %d bytes",
			st.LagSegments, st.LagBytes)
	}
	if len(st.Arities) == 0 || st.AppliedRecords == 0 {
		t.Fatalf("replication stats %+v", st)
	}

	// Primary dies. Sync fails, reads keep working — the whole point.
	psrv.Close()
	if err := fol.SyncOnce(ctx); err == nil {
		t.Fatal("sync against a dead primary succeeded")
	}
	cls = classify(t, fsrv.URL, variants[:5])
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("variant %d lost after primary death", i)
		}
	}
	if after := fol.Stats().SyncErrors; after <= st.SyncErrors {
		t.Fatalf("sync errors %d after a failed pass, %d before: failure not counted", after, st.SyncErrors)
	}
}

// TestFollowerLagIsPassBacklog: the lag a pass reports is the backlog it
// found, so records the primary logged since the previous pass show up
// as nonzero lag in the Stats snapshot right after the pass that applied
// them, and the next pass, finding nothing new, reads zero.
func TestFollowerLagIsPassBacklog(t *testing.T) {
	preg, psrv := newPrimary(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	fol, _ := newFollower(t, psrv.URL, replica.ModeLocal, 0)
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := preg.InsertCtx(ctx, []*tt.TT{tt.Random(5, rng), tt.Random(6, rng)}); err != nil {
		t.Fatal(err)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := fol.Stats()
	if st.LagBytes <= 0 || st.LagSegments <= 0 {
		t.Fatalf("pass over new records reports lag %d segments / %d bytes, want > 0",
			st.LagSegments, st.LagBytes)
	}
	if got, want := classes(t, fol.Registry()), classes(t, preg); got != want {
		t.Fatalf("follower holds %d classes, primary %d", got, want)
	}

	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := fol.Stats(); st.LagBytes != 0 || st.LagSegments != 0 {
		t.Fatalf("pass over nothing new reports lag %d segments / %d bytes, want zero",
			st.LagSegments, st.LagBytes)
	}
}

// TestFollowerProxyMode covers the -follow-mode proxy path: misses are
// answered by the primary before the tail loop has applied them, inserts
// are forwarded, and a dead primary degrades to local answers instead of
// failing reads.
func TestFollowerProxyMode(t *testing.T) {
	preg, psrv := newPrimary(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	f0 := tt.Random(5, rng)
	if _, err := preg.InsertCtx(ctx, []*tt.TT{f0}); err != nil {
		t.Fatal(err)
	}

	fol, fsrv := newFollower(t, psrv.URL, replica.ModeProxy, 0)

	// No sync yet: a local miss, proxied to the primary, comes back a hit.
	cls := classify(t, fsrv.URL, []string{f0.Hex()})
	if !cls.Results[0].Hit {
		t.Fatal("proxied classify missed a class the primary holds")
	}
	if fol.Stats().ProxiedClassifies == 0 {
		t.Fatal("proxy counter not bumped")
	}

	// Inserts forward to the primary, then replicate back on the next sync.
	f1 := tt.Random(6, rng)
	resp, body := post(t, fsrv.URL+"/v2/insert", api.BatchRequest{Functions: []string{f1.Hex()}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied insert status %d: %s", resp.StatusCode, body)
	}
	var ins api.InsertResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 || !ins.Results[0].New {
		t.Fatalf("proxied insert not created on primary: %s", body)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	svc, err := fol.Registry().Service(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := svc.Store().LookupCtx(ctx, f1); !ok {
		t.Fatal("proxied insert did not replicate back")
	}

	// Dead primary: classify still answers (miss), insert fails loudly.
	psrv.Close()
	unknown := tt.Random(4, rng)
	cls = classify(t, fsrv.URL, []string{unknown.Hex()})
	if cls.Results[0].Hit {
		t.Fatal("unknown function hit")
	}
	if fol.Stats().ProxyErrors == 0 {
		t.Fatal("proxy failure not counted")
	}
	resp, body = post(t, fsrv.URL+"/v2/insert", api.BatchRequest{Functions: []string{unknown.Hex()}})
	if resp.StatusCode != http.StatusBadGateway || errorCode(t, body) != api.CodePrimaryUnreachable {
		t.Fatalf("insert against dead primary: %d %s, want 502 primary_unreachable", resp.StatusCode, body)
	}
}

// TestFollowerProxyBadRep: a primary hit whose representative does not
// parse at the witness's arity is handled like a malformed witness — the
// local miss stands and the failure is counted in ProxyErrors.
func TestFollowerProxyBadRep(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, json.RawMessage(`{"results":[{"function":"1ee1","hit":true,`+
			`"class":"00000000000000aa","index":0,"rep":"zzzz",`+
			`"witness":{"perm":[0,1,2,3],"neg_mask":0,"out_neg":false}}],"errors":0}`))
	}))
	t.Cleanup(primary.Close)
	fol, fsrv := newFollower(t, primary.URL, replica.ModeProxy, 0)

	cls := classify(t, fsrv.URL, []string{"1ee1"})
	if cls.Results[0].Hit {
		t.Fatalf("unparsable primary rep merged as a hit: %+v", cls.Results[0])
	}
	if fol.Stats().ProxyErrors != 1 {
		t.Fatalf("ProxyErrors = %d, want 1", fol.Stats().ProxyErrors)
	}
}

// TestFollowerReadOnlySurface: local mode refuses inserts and compaction
// outright.
func TestFollowerReadOnlySurface(t *testing.T) {
	_, psrv := newPrimary(t)
	_, fsrv := newFollower(t, psrv.URL, replica.ModeLocal, 0)

	resp, body := post(t, fsrv.URL+"/v2/insert", api.BatchRequest{Functions: []string{"1ee1"}})
	if resp.StatusCode != http.StatusForbidden || errorCode(t, body) != api.CodeReadOnly {
		t.Fatalf("local-mode insert: %d %s, want 403 read_only", resp.StatusCode, body)
	}
	resp, body = post(t, fsrv.URL+"/v2/compact", struct{}{})
	if resp.StatusCode != http.StatusForbidden || errorCode(t, body) != api.CodeReadOnly {
		t.Fatalf("follower compact: %d %s, want 403 read_only", resp.StatusCode, body)
	}
}

// TestFollowerStaleGate: with StaleAfter set, /healthz is 503 before the
// first successful sync, 200 right after one, and 503 again once the
// primary has been unreachable past the threshold — while classify keeps
// serving.
func TestFollowerStaleGate(t *testing.T) {
	preg, psrv := newPrimary(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	f0 := tt.Random(4, rng)
	if _, err := preg.InsertCtx(ctx, []*tt.TT{f0}); err != nil {
		t.Fatal(err)
	}

	fol, fsrv := newFollower(t, psrv.URL, replica.ModeLocal, 50*time.Millisecond)
	health := func() int {
		resp, err := http.Get(fsrv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := health(); got != http.StatusServiceUnavailable {
		t.Fatalf("never-synced follower healthz %d, want 503", got)
	}
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := health(); got != http.StatusOK {
		t.Fatalf("fresh follower healthz %d, want 200", got)
	}
	psrv.Close()
	time.Sleep(80 * time.Millisecond)
	if got := health(); got != http.StatusServiceUnavailable {
		t.Fatalf("stale follower healthz %d, want 503", got)
	}
	// Stale gates routing, not serving: reads still answer.
	if cls := classify(t, fsrv.URL, []string{f0.Hex()}); !cls.Results[0].Hit {
		t.Fatal("stale follower dropped its replicated class")
	}
}

// TestFollowerNarrowerRange: a follower federating a subset of the
// primary's arities replicates its subset and stays healthy — the
// out-of-range arities are skipped, not treated as sync failures that
// would keep the staleness gate tripped forever.
func TestFollowerNarrowerRange(t *testing.T) {
	preg, psrv := newPrimary(t) // arities 4-6
	ctx := context.Background()
	rng := rand.New(rand.NewSource(45))
	in4, in6 := tt.Random(4, rng), tt.Random(6, rng)
	if _, err := preg.InsertCtx(ctx, []*tt.TT{in4, in6}); err != nil {
		t.Fatal(err)
	}

	reg, err := federation.New(4, 5, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol := replica.New(reg, replica.Options{Primary: psrv.URL, Mode: replica.ModeLocal, StaleAfter: time.Minute})
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatalf("narrow-range sync failed: %v", err)
	}
	if fol.Stale() {
		t.Fatal("narrow-range follower stale after a clean sync")
	}
	svc, err := reg.Service(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := svc.Store().LookupCtx(ctx, in4); !ok {
		t.Fatal("in-range arity did not replicate")
	}
	st := fol.Stats()
	for _, a := range st.Arities {
		if a.Arity > 5 {
			t.Fatalf("out-of-range arity %d has a cursor", a.Arity)
		}
	}
}

// TestFollowerOfRestartedIdlePrimary: a primary that restarted over its
// data directory and received no traffic must still ship its whole
// history — the manifest wakes on-disk arities, so a fresh follower
// converges instead of syncing to an empty manifest.
func TestFollowerOfRestartedIdlePrimary(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(46))
	dir := t.TempDir()
	mk := func() *federation.Registry {
		reg, err := federation.New(4, 6, federation.Options{
			Store: store.Options{Shards: 4},
			Data:  dir,
			WAL:   wal.Options{SegmentBytes: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	first := mk()
	fs := []*tt.TT{tt.Random(4, rng), tt.Random(5, rng), tt.Random(6, rng)}
	if _, err := first.InsertCtx(ctx, fs); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := mk() // no traffic: no services constructed yet
	defer restarted.Close()
	psrv := httptest.NewServer(federation.NewHandler(restarted))
	defer psrv.Close()

	fol, fsrv := newFollower(t, psrv.URL, replica.ModeLocal, 0)
	if err := fol.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	cls := classify(t, fsrv.URL, []string{fs[0].Hex(), fs[1].Hex(), fs[2].Hex()})
	for i, r := range cls.Results {
		if !r.Hit {
			t.Fatalf("class %d not replicated from a restarted idle primary", i)
		}
	}
}

// TestFollowerRunLoop drives the background loop end to end: inserts on
// the primary become follower hits within a few poll intervals, with no
// manual SyncOnce.
func TestFollowerRunLoop(t *testing.T) {
	preg, psrv := newPrimary(t)
	rng := rand.New(rand.NewSource(44))
	f0 := tt.Random(5, rng)
	if _, err := preg.InsertCtx(context.Background(), []*tt.TT{f0}); err != nil {
		t.Fatal(err)
	}

	reg, err := federation.New(4, 6, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fol := replica.New(reg, replica.Options{Primary: psrv.URL, Interval: 20 * time.Millisecond, Mode: replica.ModeLocal})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		svc, err := reg.Service(5)
		if err == nil {
			if _, _, _, _, ok := svc.Store().LookupCtx(context.Background(), f0); ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("follower run loop never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
}

// TestSyncErrorReachesLog: the tail loop hands a failed pass's error
// text to Options.Logf — the only place it is kept — and logs it once per
// error transition, not once per failed pass.
func TestSyncErrorReachesLog(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
	}))
	t.Cleanup(primary.Close)
	reg, err := federation.New(4, 6, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	fol := replica.New(reg, replica.Options{Primary: primary.URL, Interval: time.Millisecond, Mode: replica.ModeLocal,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()

	// Passes run one after another, so once a third has failed the first
	// two have finished logging.
	deadline := time.Now().Add(10 * time.Second)
	for fol.Stats().SyncErrors < 3 {
		if time.Now().After(deadline) {
			t.Fatal("run loop never failed three passes")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	got := append([]string(nil), lines...)
	mu.Unlock()
	cancel()
	<-done

	want := "replica: sync: GET /v1/wal/segments: 503 Service Unavailable"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("log lines %q, want exactly [%q]", got, want)
	}
}

// TestShutdownIsNoSyncError: cancelling Run while a pass waits on the
// primary ends that pass, and the follower neither counts it as a sync
// error nor logs it.
func TestShutdownIsNoSyncError(t *testing.T) {
	entered := make(chan struct{}, 1)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/wal/segments" {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-r.Context().Done()
		}
		http.Error(w, "not found", http.StatusNotFound)
	}))
	t.Cleanup(primary.Close)
	reg, err := federation.New(4, 6, federation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	fol := replica.New(reg, replica.Options{Primary: primary.URL, Interval: time.Millisecond, Mode: replica.ModeLocal,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	<-entered
	cancel()
	<-done

	if n := fol.Stats().SyncErrors; n != 0 {
		t.Errorf("sync errors %d after a shutdown mid-pass, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.HasPrefix(l, "replica: sync:") {
			t.Errorf("shutdown logged %q", l)
		}
	}
}
