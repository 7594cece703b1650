package store

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/npn"
	"repro/internal/tt"
)

func TestAddLookupWitness(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(300))
	n := 5
	s := New(n, Options{Shards: 4})
	base := make([]*tt.TT, 12)
	for i := range base {
		base[i] = tt.Random(n, rng)
		s.AddCtx(ctx, base[i])
	}
	if s.Size() > len(base) {
		t.Fatalf("size %d > %d inserted", s.Size(), len(base))
	}
	for _, f := range base {
		variant := npn.RandomTransform(n, rng).Apply(f)
		rep, _, _, w, ok := s.LookupCtx(ctx, variant)
		if !ok {
			t.Fatalf("variant of stored class missed")
		}
		if !w.Apply(rep).Equal(variant) {
			t.Fatal("witness does not verify")
		}
	}
}

func TestLookupMissReturnsKey(t *testing.T) {
	ctx := context.Background()
	s := New(3, Options{})
	s.AddCtx(ctx, tt.MustFromHex(3, "e8"))
	f := tt.MustFromHex(3, "96") // parity: different class
	rep, key, index, _, ok := s.LookupCtx(ctx, f)
	if ok || rep != nil || index != -1 {
		t.Fatal("parity must miss a majority-only store")
	}
	if wantKey, _, _ := s.keyOf(f), 0, 0; key != wantKey {
		t.Fatalf("miss key %016x, want %016x", key, wantKey)
	}
}

// keyOf is a test helper computing the class key the way the store does.
func (s *Store) keyOf(f *tt.TT) uint64 {
	e := s.borrow()
	defer s.release(e)
	return e.cls.Hash(f)
}

// TestCollisionChain verifies the chained-representative semantics with a
// known MSV collision: 0118 and 0182 share their full MSV under OCV1+OIV
// but are not NPN-equivalent, so both must be stored as separate classes
// under one key.
func TestCollisionChain(t *testing.T) {
	ctx := context.Background()
	n := 4
	a := tt.MustFromHex(n, "0118")
	b := tt.MustFromHex(n, "0182")
	cfg := core.Config{OCV1: true, OIV: true}

	cls := core.New(n, cfg)
	if string(cls.KeyBytes(a)) != string(cls.KeyBytes(b)) {
		t.Fatal("test pair no longer collides under OCV1+OIV")
	}
	if _, eq := match.NewMatcher(n).Equivalent(a, b); eq {
		t.Fatal("test pair is NPN equivalent; want inequivalent")
	}

	s := New(n, Options{Shards: 2, Config: cfg})
	ka, ia, newA := s.AddCtx(ctx, a)
	kb, ib, newB := s.AddCtx(ctx, b)
	if !newA || !newB {
		t.Fatalf("both colliding functions must found classes: newA=%v newB=%v", newA, newB)
	}
	if ka != kb {
		t.Fatalf("pair must share a key: %016x vs %016x", ka, kb)
	}
	if ia != 0 || ib != 1 {
		t.Fatalf("chain indices (%d,%d), want (0,1)", ia, ib)
	}
	if chains, maxLen := s.ChainStats(); s.Size() != 2 || chains != 1 || maxLen != 2 {
		t.Fatalf("size=%d in %d chains (longest %d), want 2 classes in one chain", s.Size(), chains, maxLen)
	}
	for want, f := range []*tt.TT{a, b} {
		rep, _, idx, w, ok := s.LookupCtx(ctx, f)
		if !ok || idx != want {
			t.Fatalf("chained class %s: ok=%v idx=%d, want hit at %d", f.Hex(), ok, idx, want)
		}
		if !w.Apply(rep).Equal(f) {
			t.Fatalf("witness for %s does not verify", f.Hex())
		}
	}
	// Idempotence across the chain.
	if _, _, isNew := s.AddCtx(ctx, a.Clone()); isNew {
		t.Fatal("re-add of chained representative created a class")
	}
}

// TestConcurrentAddLookup hammers the store from many goroutines (run
// under -race). Writers insert NPN variants of a shared set of base
// functions; readers look up other variants. At the end every base class
// must be present exactly once.
func TestConcurrentAddLookup(t *testing.T) {
	ctx := context.Background()
	n := 5
	const (
		numBase    = 24
		goroutines = 8
		opsPerG    = 60
	)
	seedRng := rand.New(rand.NewSource(301))
	base := make([]*tt.TT, numBase)
	for i := range base {
		base[i] = tt.Random(n, seedRng)
	}

	s := New(n, Options{Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + g)))
			for op := 0; op < opsPerG; op++ {
				f := npn.RandomTransform(n, rng).Apply(base[rng.Intn(numBase)])
				if op%2 == 0 {
					s.AddCtx(ctx, f)
				} else {
					if rep, _, _, w, ok := s.LookupCtx(ctx, f); ok && !w.Apply(rep).Equal(f) {
						t.Error("concurrent witness does not verify")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every class inserted at most once: the store must not exceed the
	// number of distinct base classes (variants of one base are one class).
	ref := New(n, Options{})
	distinct := 0
	for _, f := range base {
		if _, _, isNew := ref.AddCtx(ctx, f); isNew {
			distinct++
		}
	}
	if s.Size() > distinct {
		t.Fatalf("store size %d exceeds %d distinct classes: duplicate class created under concurrency", s.Size(), distinct)
	}
	// And every base class must now be found.
	for _, f := range base {
		if _, _, _, _, ok := s.LookupCtx(ctx, f); !ok {
			// A base function is only guaranteed present if some goroutine
			// added one of its variants; with 480 adds over 24 classes this
			// is morally certain, so treat a miss as a real failure.
			t.Fatalf("base class %s missing after concurrent inserts", f.Hex())
		}
	}
}

// TestConcurrentCollisionChain races many writers on a single colliding
// key (run under -race): the chain must end up with exactly the two
// inequivalent classes no matter the interleaving.
func TestConcurrentCollisionChain(t *testing.T) {
	n := 4
	cfg := core.Config{OCV1: true, OIV: true}
	a := tt.MustFromHex(n, "0118")
	b := tt.MustFromHex(n, "0182")

	for trial := 0; trial < 10; trial++ {
		s := New(n, Options{Shards: 1, Config: cfg})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f := a
				if g%2 == 1 {
					f = b
				}
				for i := 0; i < 20; i++ {
					s.AddCtx(context.Background(), f.Clone())
				}
			}(g)
		}
		wg.Wait()
		if chains, _ := s.ChainStats(); s.Size() != 2 || chains != 1 {
			t.Fatalf("trial %d: size=%d in %d chains, want exactly the 2 chained classes",
				trial, s.Size(), chains)
		}
	}
}

// TestProfileCacheCounters checks the memoization contract: the first
// certification against a representative builds its profile (miss), later
// ones reuse it (hit) — a hint attempt included, since it matches against
// the same memoized profile — and entries never exceed the class count.
// FuzzStoreLookupWitness checks the verdicts against npn.Equivalent.
func TestProfileCacheCounters(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(310))
	n := 6
	s := New(n, Options{Shards: 4})
	base := make([]*tt.TT, 10)
	for i := range base {
		base[i] = tt.Random(n, rng)
		s.AddCtx(ctx, base[i])
	}
	for round := 0; round < 3; round++ {
		for _, f := range base {
			v := npn.RandomTransform(n, rng).Apply(f)
			hits0, misses0, _ := s.ProfileCacheStats()
			rep, _, _, w, ok := s.LookupCtx(ctx, v)
			if !ok {
				t.Fatal("variant of stored class missed")
			}
			if !w.Apply(rep).Equal(v) {
				t.Fatal("witness or representative does not verify")
			}
			// Past the first round every class is hinted: one hint attempt,
			// one profile hit, no profile built.
			if hits1, misses1, _ := s.ProfileCacheStats(); round > 0 && (hits1-hits0 != 1 || misses1 != misses0) {
				t.Fatalf("round %d hint hit counted %d profile hits and %d misses, want 1 and 0",
					round, hits1-hits0, misses1-misses0)
			}
		}
	}
	hits, misses, entries := s.ProfileCacheStats()
	if misses != entries {
		t.Fatalf("misses %d != entries %d (each miss must memoize exactly one profile)", misses, entries)
	}
	if entries > int64(s.Size()) {
		t.Fatalf("entries %d exceed class count %d", entries, s.Size())
	}
	if hits == 0 {
		t.Fatal("repeated lookups produced no profile-cache hits")
	}
}

func TestShardSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	n := 5
	s := New(n, Options{Shards: 4})
	for i := 0; i < 50; i++ {
		s.AddCtx(context.Background(), tt.Random(n, rng))
	}
	total := 0
	for _, c := range s.ShardSizes() {
		total += c
	}
	if total != s.Size() {
		t.Fatalf("shard sizes sum %d != size %d", total, s.Size())
	}
	if got := len(s.ShardSizes()); got != 4 {
		t.Fatalf("%d shards, want 4", got)
	}
}

func TestShardRounding(t *testing.T) {
	if got := len(New(3, Options{Shards: 5}).ShardSizes()); got != 8 {
		t.Fatalf("shards rounded to %d, want 8", got)
	}
	if got := len(New(3, Options{}).ShardSizes()); got != DefaultShards {
		t.Fatalf("default shards %d, want %d", got, DefaultShards)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	s := New(4, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	s.AddCtx(context.Background(), tt.MustFromHex(3, "e8"))
}

// TestConcurrentFoundingOneClassPerNPNClass races many writers founding
// the same classes (run under -race): disguises of one member of the
// crafted family x0⊕x1⊕h(x2..x7), whose certification visits thousands of
// search nodes, and of the 0118/0182 pair, which share one chain under the
// OCV1+OIV key. Members that race into a chain are certified outside the
// shard lock and the append retried; whatever the interleaving, each NPN
// class must be founded exactly once and every disguise must hit it.
func TestConcurrentFoundingOneClassPerNPNClass(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(330))
	h := tt.Random(6, rng)
	crafted := tt.FromFunc(8, func(x int) bool { return (x&1 == 1) != (x>>1&1 == 1) != h.Get(x>>2) })
	for _, tc := range []struct {
		name    string
		n       int
		opts    Options
		classes []*tt.TT
		trials  int
	}{
		{"crafted", 8, Options{Shards: 1}, []*tt.TT{crafted}, 4},
		{"chain", 4, Options{Shards: 1, Config: hintConfig}, []*tt.TT{tt.MustFromHex(4, "0118"), tt.MustFromHex(4, "0182")}, 50},
	} {
		for trial := 0; trial < tc.trials; trial++ {
			s := New(tc.n, tc.opts)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(340 + 8*trial + g)))
					for i := 0; i < 3; i++ {
						base := tc.classes[(g+i)%len(tc.classes)]
						s.AddCtx(ctx, npn.RandomTransform(tc.n, rng).Apply(base))
					}
				}(g)
			}
			wg.Wait()
			if s.Size() != len(tc.classes) {
				t.Fatalf("%s trial %d: %d classes founded, want %d", tc.name, trial, s.Size(), len(tc.classes))
			}
			for _, f := range tc.classes {
				if rep, _, _, w, ok := s.LookupCtx(ctx, f); !ok || !w.Apply(rep).Equal(f) {
					t.Fatalf("%s trial %d: class %s not found after concurrent founding", tc.name, trial, f.Hex())
				}
			}
		}
	}
}

// allReps returns a point-in-time copy of every representative.
func (s *Store) allReps() []*tt.TT {
	var fs []*tt.TT
	s.forEachChain(func(_ int, chain []*tt.TT) { fs = append(fs, chain...) })
	return fs
}
