package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/npn"
	"repro/internal/tt"
)

// TestLookupHitAllocs gates the zero-alloc store path of the shipped full
// MSV key on both of its routes: a hint hit (the cheap OCV1+OIV hash plus
// one budgeted match against the memoized profile) and a full-path hit
// (the cheap hash, the full MSV hash, query profile build and chain
// certification), each for a LookupCtx hit against a warm store and for
// an AddCtx of an already-stored class. The full path is forced by
// turning every hint into a tombstone, the state an ambiguous cheap key
// leaves behind.
// The bound is 2 (not 0) only to absorb a GC emptying the engine pool
// mid-measurement; the steady-state path itself allocates nothing.
//
// The functions on this path carry //npn:noalloc annotations checked
// statically by cmd/npnlint against the compiler's escape analysis;
// TestNoallocParity (noalloc_parity_test.go) keeps the annotation set
// and this dynamic gate covering the same canonical list.
func TestLookupHitAllocs(t *testing.T) {
	ctx := context.Background()
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	for _, n := range []int{6, 8} {
		s := New(n, Options{})
		rng := rand.New(rand.NewSource(int64(900 + n)))
		fs := make([]*tt.TT, 64)
		for i := range fs {
			fs[i] = tt.Random(n, rng)
			s.AddCtx(ctx, fs[i])
		}
		// Disguised queries exercise real certification, not Equal fast
		// paths; a warm pass populates the profile cache, the hints and the
		// engine pool.
		queries := make([]*tt.TT, len(fs))
		for i, f := range fs {
			tr := npn.Identity(n)
			tr.Perm[0], tr.Perm[n-1] = uint8(n-1), 0
			tr.NegMask = 0b11
			tr.OutNeg = i%2 == 1
			queries[i] = tr.Apply(f)
		}
		for _, q := range queries {
			if _, _, _, _, ok := s.LookupCtx(ctx, q); !ok {
				t.Fatalf("n=%d: warm lookup missed", n)
			}
		}
		for _, route := range []string{"hint", "full"} {
			if route == "full" {
				s.tombstoneHints()
			}
			before, _ := s.hintStats()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				q := queries[i%len(queries)]
				i++
				if _, _, _, _, ok := s.LookupCtx(ctx, q); !ok {
					t.Fatalf("%s n=%d: lookup missed", route, n)
				}
			})
			if allocs > 2 {
				t.Errorf("%s n=%d: Lookup hit allocates %.1f/op, want ~0", route, n, allocs)
			}
			allocs = testing.AllocsPerRun(200, func() {
				q := queries[i%len(queries)]
				i++
				if _, _, isNew := s.AddCtx(ctx, q); isNew {
					t.Fatalf("%s n=%d: Add of a stored class founded a new one", route, n)
				}
			})
			if allocs > 2 {
				t.Errorf("%s n=%d: Add of a stored class allocates %.1f/op, want ~0", route, n, allocs)
			}
			if after, _ := s.hintStats(); after != before {
				t.Fatalf("%s n=%d: live hints %d -> %d; the measured path took another route", route, n, before, after)
			}
			if route == "hint" && before == 0 {
				t.Fatalf("n=%d: the warm pass published no hints", n)
			}
		}
	}
}

// hintStats counts the live hints and the tombstones of ambiguous cheap
// keys.
func (s *Store) hintStats() (live, tombstones int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, h := range sh.hints {
			if h.prof != nil {
				live++
			} else {
				tombstones++
			}
		}
		sh.mu.RUnlock()
	}
	return live, tombstones
}

// tombstoneHints marks every hinted cheap key ambiguous, so every later
// LookupCtx and AddCtx takes the full-key path.
func (s *Store) tombstoneHints() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.hints {
			sh.hints[c] = hint{}
		}
		sh.mu.Unlock()
	}
}
