package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/tt"
)

// TestApplyLogRecordTrusted: a record whose segment meta matches the
// applying store's fingerprint is published under the logged key, once,
// and the follower serves it with the primary's (key, index).
func TestApplyLogRecordTrusted(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	primary := New(6, Options{})
	follower := New(6, Options{})

	// Same config, so the primary's key is trusted verbatim.
	f := tt.Random(6, rng)
	key, idx, isNew := primary.AddCtx(ctx, f)
	if !isNew {
		t.Fatal("primary insert not new")
	}
	if !follower.ApplyLogRecord(primary.Fingerprint(), key, f) {
		t.Fatal("trusted apply not published")
	}
	if follower.ApplyLogRecord(primary.Fingerprint(), key, f) {
		t.Fatal("duplicate apply published twice")
	}
	rep, gotKey, gotIdx, _, ok := follower.LookupCtx(ctx, f)
	if !ok || gotKey != key || gotIdx != idx || !rep.Equal(f) {
		t.Fatalf("replicated lookup (%v, %d, %d)", ok, gotKey, gotIdx)
	}
}

// TestApplyLogRecordUntrusted: a record whose segment meta does not match
// the applying store's fingerprint must be re-hashed — the bogus logged
// key is ignored and the class lands under the store's own key.
func TestApplyLogRecordUntrusted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := New(5, Options{})
	f := tt.Random(5, rng)
	const bogusKey = 0xdeadbeef
	if !s.ApplyLogRecord(s.Fingerprint()+1, bogusKey, f) {
		t.Fatal("untrusted apply not published")
	}
	rep, key, _, _, ok := s.LookupCtx(context.Background(), f)
	if !ok || !rep.Equal(f) {
		t.Fatal("untrusted apply not servable")
	}
	if key == bogusKey {
		t.Fatal("bogus logged key was trusted")
	}
	// Idempotent for NPN-equivalent duplicates too (certified path).
	if s.ApplyLogRecord(s.Fingerprint()+1, bogusKey, f) {
		t.Fatal("duplicate untrusted apply published twice")
	}
}

// TestApplySnapshotDeterministicChains: applying the same snapshot twice
// publishes once, and chain indices reproduce the snapshot order — the
// identity contract followers rely on.
func TestApplySnapshotDeterministicChains(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(33))
	var fs []*tt.TT
	for i := 0; i < 40; i++ {
		fs = append(fs, tt.Random(4, rng))
	}
	// Dedup exact tables so the published count is predictable.
	seen := map[string]bool{}
	uniq := fs[:0]
	for _, f := range fs {
		if h := f.Hex(); !seen[h] {
			seen[h] = true
			uniq = append(uniq, f)
		}
	}

	a := New(4, Options{})
	b := New(4, Options{})
	if got := a.ApplySnapshot(uniq); got != len(uniq) {
		t.Fatalf("first apply published %d, want %d", got, len(uniq))
	}
	if got := a.ApplySnapshot(uniq); got != 0 {
		t.Fatalf("re-apply published %d, want 0", got)
	}
	b.ApplySnapshot(uniq)
	for _, f := range uniq {
		_, ka, ia, _, oka := a.LookupCtx(ctx, f)
		_, kb, ib, _, okb := b.LookupCtx(ctx, f)
		if !oka || !okb || ka != kb || ia != ib {
			t.Fatalf("identity diverged: (%v %d %d) vs (%v %d %d)", oka, ka, ia, okb, kb, ib)
		}
	}
}
