package store

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/npn"
	"repro/internal/tt"
)

// FuzzStoreLookupWitness fuzzes the store's certification invariant: for
// random truth tables and random NPN disguises of them, every LookupCtx hit
// must return a witness τ that actually transforms the returned
// representative into the query (replayed with npn.Transform.Apply and
// compared bit-for-bit), and a disguise of an inserted function must never
// miss. Each disguise is looked up twice — the second lookup can take the
// hint path the first one published — and both must return the same
// identity. A probe table must hit if and only if npn.Equivalent, which
// shares no code with the matcher, says it is equivalent to one of the two
// inserted functions. The fuzz inputs drive the arity, the table bits and
// the transform stream, so the corpus explores collision chains, shared
// cheap keys, balanced functions (both output phases) and degenerate
// (constant) tables alike.
func FuzzStoreLookupWitness(f *testing.F) {
	ctx := context.Background()
	f.Add(uint8(4), uint64(0xcafef00dcafef00d), uint64(0x0118), int64(1))
	f.Add(uint8(6), uint64(0), uint64(^uint64(0)), int64(2))
	f.Add(uint8(3), uint64(0x96), uint64(0xe8), int64(3))
	f.Add(uint8(5), uint64(0x123456789abcdef0), uint64(0xaaaaaaaaaaaaaaaa), int64(4))
	// 0118 and 0182 share their OCV1+OIV hash but are inequivalent: the
	// second class to be hit finds the first one's hint under its cheap key.
	f.Add(uint8(5), uint64(0x0118), uint64(0x0182), int64(5))

	f.Fuzz(func(t *testing.T, nRaw uint8, bitsA, bitsB uint64, seed int64) {
		n := 3 + int(nRaw%4) // arity 3..6: one-word tables, chains still reachable
		a := tt.FromUint64Seq(n, bitsA)
		b := tt.FromUint64Seq(n, bitsB)
		rng := rand.New(rand.NewSource(seed))

		// The weak key forces the pair into one collision chain whenever
		// their cheap keys agree, so hints, chains and ambiguity all meet.
		for _, cfg := range []core.Config{{}, hintConfig} {
			s := New(n, Options{Shards: 2, Config: cfg})
			s.AddCtx(ctx, a)
			s.AddCtx(ctx, b)

			// b first: when the pair shares a chain, b sits at index 1 and
			// its hint is the first one published.
			for i := 0; i < 4; i++ {
				base := b
				if i%2 == 1 {
					base = a
				}
				query := npn.RandomTransform(n, rng).Apply(base)
				rep, key, index, w, ok := s.LookupCtx(ctx, query)
				if !ok {
					t.Fatalf("n=%d disguise %s of inserted %s missed", n, query.Hex(), base.Hex())
				}
				if index < 0 || rep == nil {
					t.Fatalf("n=%d hit with index=%d rep=%v", n, index, rep)
				}
				if got := w.Apply(rep); !got.Equal(query) {
					t.Fatalf("n=%d witness does not verify: τ(%s) = %s, want %s",
						n, rep.Hex(), got.Hex(), query.Hex())
				}
				rep2, key2, index2, w2, ok2 := s.LookupCtx(ctx, query)
				if !ok2 || key2 != key || index2 != index || !w2.Apply(rep2).Equal(query) {
					t.Fatalf("n=%d disguise %s: second lookup (%v,%016x,%d), first (true,%016x,%d)",
						n, query.Hex(), ok2, key2, index2, key, index)
				}
			}

			probe := tt.FromUint64Seq(n, bitsA^(bitsB<<1|1))
			want := npn.Equivalent(probe, a) || npn.Equivalent(probe, b)
			for pass := 0; pass < 2; pass++ {
				rep, _, _, w, ok := s.LookupCtx(ctx, probe)
				if ok != want {
					t.Fatalf("n=%d probe %s (pass %d): hit=%v, npn.Equivalent says %v", n, probe.Hex(), pass, ok, want)
				}
				if ok && !w.Apply(rep).Equal(probe) {
					t.Fatalf("n=%d probe %s: witness does not verify", n, probe.Hex())
				}
			}
		}
	})
}
