package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/npn"
	"repro/internal/tt"
	"repro/internal/wal"
)

// ident is a class identity as the store serves it.
type ident struct {
	key   uint64
	index int
}

// TestExhaustive4VarStoreOracle checks partition equality through the
// store against the exact canonical form, on the whole four-variable
// universe: all 65,536 functions are inserted, then each is looked up
// twice, so every class whose cheap key is unambiguous is served from its
// hint on the second pass (after recovery, which rebuilds no hints, the
// first pass publishes them). There
// must be exactly 222 classes, every witness must replay, (key, index)
// must be a bijection onto npn.ExactCanon forms, and Add and both lookup
// passes must return identical identities. The same must hold, with the
// same identities, after Recover of the store's WAL. The 222 classes
// share 179 cheap keys, so live hints and ambiguous cheap keys both
// appear; under the OCV1+OIV key the cheap key is also the class key, with
// chains of up to 6, so hints, chains and the ambiguity rule meet.
func TestExhaustive4VarStoreOracle(t *testing.T) {
	ctx := context.Background()
	const n = 4
	universe := make([]*tt.TT, 1<<(1<<n))
	canon := make([]uint64, len(universe))
	for x := range universe {
		universe[x] = tt.FromWord(n, uint64(x))
		canon[x] = npn.ExactCanon(universe[x]).Word()
	}
	// Lookups run in a seeded order unlike the insertion order, so the
	// first class hit under a shared cheap key is not always chain index 0.
	order := rand.New(rand.NewSource(450)).Perm(len(universe))
	for _, tc := range []struct {
		name     string
		cfg      core.Config
		keys     int
		chainMax int
	}{
		{"full", core.Config{}, 222, 1},
		{"ocv1+oiv", hintConfig, 179, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, w, err := Recover(dir, n, Options{Config: tc.cfg}, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			added := make([]ident, len(universe))
			for x, f := range universe {
				key, index, _ := s.AddCtx(ctx, f)
				if index < 0 {
					t.Fatalf("insert of %s refused", f.Hex())
				}
				added[x] = ident{key, index}
			}
			check := func(s *Store, stage string) {
				t.Helper()
				if got := s.Size(); got != 222 {
					t.Fatalf("%s: %d classes, want 222", stage, got)
				}
				if keys, chainMax := s.ChainStats(); keys != tc.keys || chainMax != tc.chainMax {
					t.Fatalf("%s: %d keys with chains up to %d, want %d and %d", stage, keys, chainMax, tc.keys, tc.chainMax)
				}
				toCanon := map[ident]uint64{}
				toIdent := map[uint64]ident{}
				for pass := 0; pass < 2; pass++ {
					for _, x := range order {
						f := universe[x]
						rep, key, index, w, ok := s.LookupCtx(ctx, f)
						if !ok {
							t.Fatalf("%s pass %d: %s missed", stage, pass, f.Hex())
						}
						if !w.Apply(rep).Equal(f) {
							t.Fatalf("%s pass %d: witness for %s does not replay", stage, pass, f.Hex())
						}
						id := ident{key, index}
						if id != added[x] {
							t.Fatalf("%s pass %d: %s is (%016x,%d), Add said (%016x,%d)",
								stage, pass, f.Hex(), key, index, added[x].key, added[x].index)
						}
						if c, seen := toCanon[id]; seen && c != canon[x] {
							t.Fatalf("%s: (%016x,%d) holds two NPN classes", stage, key, index)
						}
						if o, seen := toIdent[canon[x]]; seen && o != id {
							t.Fatalf("%s: one NPN class under (%016x,%d) and (%016x,%d)", stage, o.key, o.index, key, index)
						}
						toCanon[id], toIdent[canon[x]] = canon[x], id
					}
				}
				if len(toCanon) != 222 || len(toIdent) != 222 {
					t.Fatalf("%s: %d identities for %d canonical forms, want 222 each", stage, len(toCanon), len(toIdent))
				}
				if live, tombstones := s.hintStats(); live == 0 || tombstones == 0 {
					t.Fatalf("%s: %d live hints and %d ambiguous cheap keys, want some of each", stage, live, tombstones)
				}
			}
			check(s, "insert")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, w2, err := Recover(dir, n, Options{Config: tc.cfg}, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			check(r, "recover")
		})
	}
}
