package federation

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/tt"
	"repro/internal/wal"
)

// TestWALEndpoints drives the primary-side replication surface directly:
// the manifest names every segment with its meta word, the segment
// endpoint serves wal.Reader-decodable bytes from arbitrary offsets, and
// the error statuses (409 non-durable, 404 missing, 400/416 bad request)
// hold.
func TestWALEndpoints(t *testing.T) {
	ctx := context.Background()
	mem, err := New(4, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	memSrv := httptest.NewServer(NewHandler(mem))
	defer memSrv.Close()
	for _, path := range []string{"/v1/wal/segments", "/v1/wal/snapshot/4", "/v1/wal/segment/4/1"} {
		resp, err := http.Get(memSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on memory-only registry: %d, want 409", path, resp.StatusCode)
		}
	}

	reg, err := New(4, 6, Options{Data: t.TempDir(), WAL: wal.Options{SegmentBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	rng := rand.New(rand.NewSource(51))
	var fs []*tt.TT
	for i := 0; i < 10; i++ {
		fs = append(fs, tt.Random(5, rng))
	}
	ins, err := reg.InsertCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/wal/segments")
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(m.Arities) != 1 || m.Arities[0].Arity != 5 || len(m.Arities[0].Segments) != 1 {
		t.Fatalf("manifest %+v", m)
	}
	am := m.Arities[0]
	if am.Segments[0].Meta != am.Fingerprint || am.Segments[0].Sealed {
		t.Fatalf("segment info %+v vs fingerprint %s", am.Segments[0], am.Fingerprint)
	}
	if am.HasSnapshot {
		t.Fatal("snapshot listed before any compaction")
	}
	resp, err = http.Get(srv.URL + "/v1/wal/snapshot/5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing snapshot: %d, want 404", resp.StatusCode)
	}

	// The segment bytes decode with the shared framing and carry exactly
	// the inserted records. The WAL holds them in worker completion order,
	// not input order (docs/ARCHITECTURE.md), so they are matched to the
	// insert results as a multiset keyed by class key.
	seg := am.Segments[0]
	resp, err = http.Get(srv.URL + "/v1/wal/segment/5/" + strconv.FormatUint(seg.Seq, 10))
	if err != nil {
		t.Fatal(err)
	}
	r := wal.NewReader(resp.Body, 0)
	var recs []wal.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	offsetMid := r.Offset()
	resp.Body.Close()
	if len(recs) != len(fs) {
		t.Fatalf("segment served %d records, want %d", len(recs), len(fs))
	}
	inserted := map[uint64][]*tt.TT{}
	for i, res := range ins {
		inserted[res.Key] = append(inserted[res.Key], fs[i])
	}
	for i, rec := range recs {
		tabs := inserted[rec.Key]
		j := slices.IndexFunc(tabs, rec.TT.Equal)
		if j < 0 {
			t.Fatalf("served record %d (class %016x) matches no insert result", i, rec.Key)
		}
		inserted[rec.Key] = slices.Delete(tabs, j, j+1)
	}

	// Offset resume: more inserts, then a range read from the previous
	// end yields exactly the new records.
	more := []*tt.TT{tt.Random(5, rng)}
	if _, err := reg.InsertCtx(ctx, more); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/wal/segment/5/1?offset=" + strconv.FormatInt(offsetMid, 10))
	if err != nil {
		t.Fatal(err)
	}
	r = wal.NewReader(resp.Body, offsetMid)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("range read past new record: %v", err)
	}
	resp.Body.Close()
	if !rec.TT.Equal(more[0]) {
		t.Fatal("range read returned the wrong record")
	}

	// Error statuses.
	for path, want := range map[string]int{
		"/v1/wal/segment/9/1":             http.StatusBadRequest, // arity outside range
		"/v1/wal/segment/5/0":             http.StatusBadRequest, // bad sequence
		"/v1/wal/segment/5/1?offset=-1":   http.StatusBadRequest, // bad offset
		"/v1/wal/segment/5/7":             http.StatusNotFound,   // no such segment
		"/v1/wal/segment/5/1?offset=1e18": http.StatusBadRequest, // non-integer offset
		"/v1/wal/snapshot/99":             http.StatusBadRequest, // arity outside range
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err = http.Get(srv.URL + "/v1/wal/segment/5/1?offset=999999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("oversized offset: %d, want 416", resp.StatusCode)
	}

	// Durability gate: a group-fsync registry with everything still
	// buffered advertises only the fsynced prefix (the 16-byte header) of
	// its active segment, and serves no more than that.
	lazy, err := New(4, 6, Options{Data: t.TempDir(), WAL: wal.Options{FsyncEvery: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if _, err := lazy.InsertCtx(ctx, []*tt.TT{tt.Random(4, rng)}); err != nil {
		t.Fatal(err)
	}
	lm, err := lazy.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(lm.Arities) != 1 || len(lm.Arities[0].Segments) != 1 || lm.Arities[0].Segments[0].Size != 16 {
		t.Fatalf("unfsynced manifest %+v, want the active segment capped at its 16-byte header", lm)
	}
	lazySrv := httptest.NewServer(NewHandler(lazy))
	defer lazySrv.Close()
	body, err := http.Get(lazySrv.URL + "/v1/wal/segment/4/1")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(body.Body)
	body.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != 16 {
		t.Fatalf("segment endpoint served %d unfsynced bytes, want the 16-byte header only", len(served))
	}

	// Restart scenario: a fresh registry over the same data directory has
	// constructed no services, but the manifest must still surface every
	// arity that left state on disk — otherwise a follower of a just-
	// restarted idle primary would sync "successfully" to nothing.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, err := New(4, 6, Options{Data: reg.opts.Data, WAL: wal.Options{SegmentBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if len(reg2.Active()) != 0 {
		t.Fatal("restarted registry has active services before any traffic")
	}
	m2, err := reg2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Arities) != 1 || m2.Arities[0].Arity != 5 || len(m2.Arities[0].Segments) == 0 {
		t.Fatalf("post-restart manifest %+v, want arity 5 with its on-disk segments", m2)
	}
}
