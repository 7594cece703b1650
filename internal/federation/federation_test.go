package federation

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/npn"
	"repro/internal/tt"
)

func mustNew(t *testing.T, lo, hi int) *Registry {
	t.Helper()
	r, err := New(lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidatesRange(t *testing.T) {
	for _, bad := range [][2]int{{1, 6}, {4, tt.MaxVars + 1}, {8, 4}, {0, 0}} {
		if _, err := New(bad[0], bad[1], Options{}); err == nil {
			t.Errorf("range %d..%d accepted", bad[0], bad[1])
		}
	}
	if _, err := New(4, 10, Options{}); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
}

// TestLazyConstruction checks that per-arity services appear only when
// their arity is first used.
func TestLazyConstruction(t *testing.T) {
	r := mustNew(t, 4, 10)
	if active := r.Active(); len(active) != 0 {
		t.Fatalf("fresh registry has active arities %v", active)
	}
	if _, err := r.InsertCtx(context.Background(), []*tt.TT{tt.MustFromHex(6, "cafef00dcafef00d")}); err != nil {
		t.Fatal(err)
	}
	if active := r.Active(); len(active) != 1 || active[0] != 6 {
		t.Fatalf("active arities %v, want [6]", active)
	}
	if _, err := r.Service(3); err == nil {
		t.Fatal("out-of-range Service(3) accepted")
	}
}

// TestMixedBatchRouting inserts one known function per arity in a single
// mixed batch, then classifies NPN disguises of all of them in one mixed
// batch: every result must land at its input position with a verifying
// witness from the right arity's store.
func TestMixedBatchRouting(t *testing.T) {
	ctx := context.Background()
	r := mustNew(t, 4, 10)
	rng := rand.New(rand.NewSource(500))

	var base []*tt.TT
	for n := 4; n <= 10; n++ {
		base = append(base, tt.Random(n, rng))
	}
	// Shuffle so consecutive batch entries hop between arities.
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	ins, err := r.InsertCtx(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range ins {
		if !res.New {
			t.Fatalf("insert %d (n=%d) did not found a class", i, base[i].NumVars())
		}
	}

	queries := make([]*tt.TT, len(base))
	for i, f := range base {
		queries[i] = npn.RandomTransform(f.NumVars(), rng).Apply(f)
	}
	cls, err := r.ClassifyCtx(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range cls {
		if !res.Hit {
			t.Fatalf("query %d (n=%d) missed", i, queries[i].NumVars())
		}
		if res.Key != ins[i].Key || res.Index != ins[i].Index {
			t.Fatalf("query %d classified as (%016x,%d), inserted as (%016x,%d)",
				i, res.Key, res.Index, ins[i].Key, ins[i].Index)
		}
		if !res.Witness.Apply(res.Rep).Equal(queries[i]) {
			t.Fatalf("query %d witness does not verify", i)
		}
	}
	if active := r.Active(); len(active) != 7 {
		t.Fatalf("active arities %v, want all of 4..10", active)
	}

	for n := 4; n <= 10; n++ {
		svc, _ := r.Service(n)
		if st := svc.Stats(); st.Inserts != 1 || st.Hits != 1 {
			t.Fatalf("arity %d stats %+v, want 1 insert and 1 hit", n, st)
		}
	}
}

// TestClassifyRejectsOutOfRangeArity fails the whole batch when any
// function's arity is outside the federated range.
func TestClassifyRejectsOutOfRangeArity(t *testing.T) {
	ctx := context.Background()
	r := mustNew(t, 5, 8)
	batch := []*tt.TT{tt.New(6), tt.New(4)}
	if _, err := r.ClassifyCtx(ctx, batch); err == nil {
		t.Fatal("out-of-range arity classified")
	}
	if _, err := r.InsertCtx(ctx, batch); err == nil {
		t.Fatal("out-of-range arity inserted")
	}
}

// TestConcurrentMixedArity hammers the registry from many goroutines with
// mixed-arity classify and insert batches across all federated arities
// (run under -race): lazy construction, routing and the per-arity
// pipelines must all be safe, and every hit's witness must verify.
func TestConcurrentMixedArity(t *testing.T) {
	ctx := context.Background()
	const (
		lo, hi     = 4, 10
		goroutines = 8
		rounds     = 12
		perArity   = 2
	)
	r := mustNew(t, lo, hi)

	seedRng := rand.New(rand.NewSource(501))
	base := make(map[int][]*tt.TT)
	for n := lo; n <= hi; n++ {
		for k := 0; k < perArity; k++ {
			base[n] = append(base[n], tt.Random(n, seedRng))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(600 + g)))
			for round := 0; round < rounds; round++ {
				var batch []*tt.TT
				for n := lo; n <= hi; n++ {
					f := base[n][rng.Intn(perArity)]
					batch = append(batch, npn.RandomTransform(n, rng).Apply(f))
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				if round%2 == 0 {
					if _, err := r.InsertCtx(ctx, batch); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				res, err := r.ClassifyCtx(ctx, batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i, c := range res {
					if c.Hit && !c.Witness.Apply(c.Rep).Equal(batch[i]) {
						t.Errorf("concurrent witness does not verify (n=%d)", batch[i].NumVars())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every arity must have ended with at most perArity classes: variants
	// of one base function are one class, and inserts across goroutines
	// must never duplicate one.
	for n := lo; n <= hi; n++ {
		svc, err := r.Service(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.Store().Size(); got > perArity {
			t.Fatalf("arity %d holds %d classes, want at most %d: duplicate class under concurrency",
				n, got, perArity)
		}
	}
}
