package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/npn"
	"repro/internal/tt"
	"repro/internal/wal"
)

// classSet returns the store's representatives as a sorted hex list —
// the exact identity a recovery must reproduce.
func classSet(s *Store) []string {
	var out []string
	for _, f := range s.allReps() {
		out = append(out, f.Hex())
	}
	sort.Strings(out)
	return out
}

func sameClassSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecoverKillDuringInserts is the acceptance scenario: a simulated
// kill -9 during a steady concurrent insert load must lose zero fsynced
// classes. The journal fsyncs every append, the writer is abandoned
// without Close (its buffers and file are simply dropped, as a SIGKILL
// drops them), and a fresh Recover must reproduce the exact class set —
// representatives and counts — of the pre-kill store.
func TestRecoverKillDuringInserts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n := 6
	s, _, err := Recover(dir, n, Options{Shards: 4}, wal.Options{SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, per = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < per; i++ {
				f := tt.Random(n, rng)
				s.AddCtx(ctx, f)
				// Also insert an NPN variant: a certified hit, must not
				// create (or log) a second class.
				s.AddCtx(ctx, npn.RandomTransform(n, rng).Apply(f))
			}
		}(g)
	}
	wg.Wait()

	want := classSet(s)
	wantSize := s.Size()
	// Kill: no Close, no flush — every append was already fsynced.

	r, w2, err := Recover(dir, n, Options{Shards: 4}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if r.Size() != wantSize {
		t.Fatalf("recovered %d classes, pre-kill store held %d", r.Size(), wantSize)
	}
	if got := classSet(r); !sameClassSet(got, want) {
		t.Fatalf("recovered class set differs: %d vs %d reps", len(got), len(want))
	}
	// The recovered store still serves: variants of recovered classes hit.
	rng := rand.New(rand.NewSource(9))
	for _, f := range r.allReps()[:10] {
		if _, _, _, _, ok := r.LookupCtx(ctx, npn.RandomTransform(n, rng).Apply(f)); !ok {
			t.Fatal("recovered store misses a variant of its own class")
		}
	}
	// Replay must not have re-journaled recovered classes: a second
	// recovery sees the same set, not a doubled log.
	r2, w3, err := Recover(dir, n, Options{Shards: 4}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if !sameClassSet(classSet(r2), want) {
		t.Fatal("second recovery diverged — recovery is re-logging classes")
	}
}

// TestRecoverLosesOnlyUnsyncedTail: with a long group-fsync interval, a
// kill drops whatever sat in the buffer — but recovery must still load a
// clean prefix, never a corrupt or partial class.
func TestRecoverLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	n := 5
	s, w, err := Recover(dir, n, Options{}, wal.Options{FsyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	inserted := make(map[string]bool)
	for i := 0; i < 50; i++ {
		f := tt.Random(n, rng)
		if _, _, isNew := s.AddCtx(context.Background(), f); isNew {
			inserted[f.Hex()] = true
		}
		if i == 24 {
			if err := w.Sync(); err != nil { // an explicit group fsync mid-stream
				t.Fatal(err)
			}
		}
	}
	// Kill without Close: appends after the explicit Sync may be lost.
	r, w2, err := Recover(dir, n, Options{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if r.Size() == 0 || r.Size() > s.Size() {
		t.Fatalf("recovered %d classes from a store of %d", r.Size(), s.Size())
	}
	for _, f := range r.allReps() {
		if !inserted[f.Hex()] {
			t.Fatalf("recovery invented class %s", f.Hex())
		}
	}
}

// TestRecoverConfigMismatch: a log written under one MSV configuration
// must recover correctly into a store keyed by another — the logged keys
// are untrusted and every record takes the re-hash path.
func TestRecoverConfigMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n := 6
	s, w, err := Recover(dir, n, Options{}, wal.Options{}) // full config
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var fs []*tt.TT
	for i := 0; i < 20; i++ {
		f := tt.Random(n, rng)
		fs = append(fs, f)
		s.AddCtx(ctx, f)
	}
	size := s.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, w2, err := Recover(dir, n, Options{Config: hintConfig}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if r.Size() != size {
		t.Fatalf("recovered %d classes under new config, want %d", r.Size(), size)
	}
	for _, f := range fs {
		if _, _, _, _, ok := r.LookupCtx(ctx, npn.RandomTransform(n, rng).Apply(f)); !ok {
			t.Fatal("class lost across a configuration change")
		}
	}
}

// TestRecoverAfterCompaction: snapshot + remaining log must recover the
// same class set as the log alone did, with inserts made after the
// compaction landing in the log. Interrupted passes are
// TestRecoverAfterInterruptedCompaction's.
func TestRecoverAfterCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n := 7
	s, w, err := Recover(dir, n, Options{}, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 30; i++ {
		s.AddCtx(ctx, tt.Random(n, rng))
	}
	want := classSet(s)

	c := &wal.Compactor{Dir: dir, N: n, W: w}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // post-compaction inserts land in the log
		s.AddCtx(ctx, tt.Random(n, rng))
	}
	want = classSet(s)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, w2, err := Recover(dir, n, Options{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameClassSet(classSet(r), want) {
		t.Fatal("recovery after compaction diverged")
	}
	w2.Close()
}

// TestRecoverAfterInterruptedCompaction: a compaction stopped between
// any two of its steps must leave a directory that recovers every logged
// function with its (key, index) and a witness that replays. The three
// states a pass can stop in — the new snapshot written aside but not
// renamed, renamed with no folded segment deleted, renamed with the lower
// half of them deleted — are built by copying files between the directory
// before a real pass and the one after it. The weak OCV1+OIV key at n=4
// forms collision chains, so chain order is at stake, and an earlier pass
// leaves an old snapshot for the interrupted one to fold.
func TestRecoverAfterInterruptedCompaction(t *testing.T) {
	ctx := context.Background()
	const n = 4
	o := Options{Config: core.Config{OCV1: true, OIV: true}}
	before := t.TempDir()
	s, w, err := Recover(before, n, o, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	type identity struct {
		key   uint64
		index int
	}
	rng := rand.New(rand.NewSource(53))
	fs := make([]*tt.TT, 300)
	ids := make([]identity, len(fs))
	chained := false
	for i := range fs {
		if i == len(fs)/2 {
			if _, err := (&wal.Compactor{Dir: before, N: n, W: w}).Compact(); err != nil {
				t.Fatal(err)
			}
		}
		fs[i] = tt.Random(n, rng)
		key, index, _ := s.AddCtx(ctx, fs[i])
		if index < 0 {
			t.Fatalf("insert %d refused", i)
		}
		ids[i] = identity{key, index}
		chained = chained || index > 0
	}
	if !chained {
		t.Fatal("no collision chain formed: chain order goes unchecked")
	}
	classes := s.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(before)
	if err != nil || len(segs) < 2 {
		t.Fatalf("%d segments (%v), want several to fold", len(segs), err)
	}

	after := t.TempDir()
	copyFiles(t, before, after)
	if _, err := (&wal.Compactor{Dir: after, N: n}).Compact(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(after, wal.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		file    string // where the new snapshot lands
		deleted int    // folded segments already deleted, lowest first
	}{
		{"written aside", wal.SnapshotFile + ".tmp", 0},
		{"renamed", wal.SnapshotFile, 0},
		{"renamed, lower half deleted", wal.SnapshotFile, len(segs) / 2},
	} {
		dir := t.TempDir()
		copyFiles(t, before, dir)
		if err := os.WriteFile(filepath.Join(dir, tc.file), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs[:tc.deleted] {
			if err := os.Remove(filepath.Join(dir, filepath.Base(seg.Path))); err != nil {
				t.Fatal(err)
			}
		}
		r, w, err := Recover(dir, n, o, wal.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Size() != classes {
			t.Errorf("%s: recovered %d classes, want %d", tc.name, r.Size(), classes)
		}
		for i, f := range fs {
			rep, key, index, tr, ok := r.LookupCtx(ctx, f)
			if !ok || (identity{key, index}) != ids[i] || !tr.Apply(rep).Equal(f) {
				t.Fatalf("%s: function %d (%s) recovered as (%016x,%d) hit=%v, logged as (%016x,%d)",
					tc.name, i, f.Hex(), key, index, ok, ids[i].key, ids[i].index)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// copyFiles copies every regular file of dir src into dir dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// failingJournal refuses every insert at log time.
type failingJournal struct{ calls int }

func (j *failingJournal) LogInsert(context.Context, uint64, *tt.TT) error {
	j.calls++
	return errors.New("disk full")
}

func (j *failingJournal) Commit(context.Context) error { return nil }

// TestJournalFailureRefusesInsert: write-ahead ordering means a class the
// journal cannot log is never published.
func TestJournalFailureRefusesInsert(t *testing.T) {
	ctx := context.Background()
	s := New(5, Options{})
	j := &failingJournal{}
	s.SetJournal(j)
	f := tt.Random(5, rand.New(rand.NewSource(31)))
	key, index, isNew := s.AddCtx(ctx, f)
	if isNew || index != -1 {
		t.Fatalf("Add published despite journal failure: key=%d index=%d new=%v", key, index, isNew)
	}
	if s.Size() != 0 {
		t.Fatalf("store holds %d classes after refused insert", s.Size())
	}
	if chains, maxLen := s.ChainStats(); chains != 0 || maxLen != 0 {
		t.Fatalf("refused insert left %d chains (longest %d) behind, want none", chains, maxLen)
	}
	if s.JournalErrors() != 1 || j.calls != 1 {
		t.Fatalf("journal errors %d (calls %d), want 1", s.JournalErrors(), j.calls)
	}
	if _, _, _, _, ok := s.LookupCtx(ctx, f); ok {
		t.Fatal("refused insert is servable")
	}
}

// commitFailJournal logs fine but cannot make the log durable.
type commitFailJournal struct{}

func (commitFailJournal) LogInsert(context.Context, uint64, *tt.TT) error { return nil }
func (commitFailJournal) Commit(context.Context) error                    { return errors.New("fsync failed") }

// TestCommitFailureReportsRefusal: a commit (fsync) failure happens after
// publication, so the class serves until restart — but the insert must
// still be reported refused (index -1) and counted, because it is not
// durable.
func TestCommitFailureReportsRefusal(t *testing.T) {
	ctx := context.Background()
	s := New(5, Options{})
	s.SetJournal(commitFailJournal{})
	f := tt.Random(5, rand.New(rand.NewSource(37)))
	_, index, isNew := s.AddCtx(ctx, f)
	if isNew || index != -1 {
		t.Fatalf("commit failure acknowledged as success: index=%d new=%v", index, isNew)
	}
	if s.JournalErrors() != 1 {
		t.Fatalf("journal errors %d, want 1", s.JournalErrors())
	}
	// Published-but-not-durable: served until restart, by design.
	if _, _, _, _, ok := s.LookupCtx(ctx, f); !ok {
		t.Fatal("committed-failed class should still serve until restart")
	}
}

// TestRecoverPreservesChainOrder: collision-chain indices are part of a
// class's served identity (key, index), so both recovery paths — log
// replay and snapshot re-add — must reproduce them exactly. Uses the
// known OCV1+OIV key collision pair 0118/0182.
func TestRecoverPreservesChainOrder(t *testing.T) {
	ctx := context.Background()
	cfg := core.Config{OCV1: true, OIV: true}
	a := tt.MustFromHex(4, "0118")
	b := tt.MustFromHex(4, "0182")
	dir := t.TempDir()

	s, w, err := Recover(dir, 4, Options{Config: cfg}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ka, ia, _ := s.AddCtx(ctx, a)
	kb, ib, _ := s.AddCtx(ctx, b)
	if ka != kb || ia != 0 || ib != 1 {
		t.Fatalf("pair no longer collides as (0,1): (%d,%d)", ia, ib)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		r, w, err := Recover(dir, 4, Options{Config: cfg}, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, key, idx, _, ok := r.LookupCtx(ctx, a); !ok || key != ka || idx != 0 {
			t.Fatalf("%s: a recovered as (%016x,%d), want (%016x,0)", stage, key, idx, ka)
		}
		if _, key, idx, _, ok := r.LookupCtx(ctx, b); !ok || key != kb || idx != 1 {
			t.Fatalf("%s: b recovered as (%016x,%d), want (%016x,1)", stage, key, idx, kb)
		}
	}
	check("log replay")

	c := &wal.Compactor{Dir: dir, N: 4}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	check("snapshot re-add")
}

// TestRecoverEmptyDir: recovering a fresh directory yields an empty,
// journaled store whose inserts survive the next recovery.
func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s, w, err := Recover(dir+"/sub", 4, Options{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Fatalf("fresh recovery holds %d classes", s.Size())
	}
	s.AddCtx(context.Background(), tt.MustFromHex(4, "1ee1"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, w2, err := Recover(dir+"/sub", 4, Options{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if r.Size() != 1 {
		t.Fatalf("recovered %d classes, want 1", r.Size())
	}
}
