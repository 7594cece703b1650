package service

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/npn"
	"repro/internal/store"
	"repro/internal/tt"
)

func newTestService(n int, o Options) *Service {
	return New(store.New(n, store.Options{Shards: 4}), o)
}

// TestInsertMatchesClassifyParallel builds the class store from a
// 6-variable circuit workload through the batch pipeline and asserts the
// induced partition is identical to core.ClassifyParallel's.
func TestInsertMatchesClassifyParallel(t *testing.T) {
	n := 6
	fs := gen.CircuitWorkload(n, 8, 1)
	if len(fs) > 2000 {
		fs = fs[:2000]
	}
	cfg := core.ConfigAll()
	cfg.FastOSDV = true

	want := core.ClassifyParallel(n, cfg, fs, 0)

	svc := newTestService(n, Options{})
	results := svc.InsertCtx(context.Background(), fs)
	if len(results) != len(fs) {
		t.Fatalf("got %d results for %d functions", len(results), len(fs))
	}

	// The pipeline's class identity is (key, chain index); the partition it
	// induces must equal ClassifyParallel's (bijective label mapping).
	toPipeline := make(map[int]string)
	toParallel := make(map[string]int)
	for i := range fs {
		pl := fmt.Sprintf("%016x:%d", results[i].Key, results[i].Index)
		id := want.ClassOf[i]
		if prev, ok := toPipeline[id]; ok && prev != pl {
			t.Fatalf("function %d: ClassifyParallel class %d maps to pipeline classes %s and %s", i, id, prev, pl)
		}
		if prev, ok := toParallel[pl]; ok && prev != id {
			t.Fatalf("function %d: pipeline class %s maps to ClassifyParallel classes %d and %d", i, pl, prev, id)
		}
		toPipeline[id] = pl
		toParallel[pl] = id
	}
	if svc.Store().Size() != want.NumClasses {
		t.Fatalf("store holds %d classes, ClassifyParallel found %d", svc.Store().Size(), want.NumClasses)
	}
}

// TestClassifyHitsWithWitness preloads a store and classifies NPN
// variants through the batch path: every result must be a certified hit.
func TestClassifyHitsWithWitness(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(500))
	n := 5
	svc := newTestService(n, Options{})
	base := make([]*tt.TT, 16)
	for i := range base {
		base[i] = tt.Random(n, rng)
	}
	svc.InsertCtx(ctx, base)

	variants := make([]*tt.TT, 64)
	for i := range variants {
		variants[i] = npn.RandomTransform(n, rng).Apply(base[i%len(base)])
	}
	results := svc.ClassifyCtx(ctx, variants)
	for i, r := range results {
		if !r.Hit {
			t.Fatalf("variant %d missed its stored class", i)
		}
		if !r.Witness.Apply(r.Rep).Equal(variants[i]) {
			t.Fatalf("variant %d: witness does not verify", i)
		}
	}
	st := svc.Stats()
	if st.Hits != int64(len(variants)) || st.Misses != 0 {
		t.Fatalf("stats hits=%d misses=%d, want %d and 0", st.Hits, st.Misses, len(variants))
	}
}

// TestClassifyMissDoesNotInsert asserts the read path never grows the
// store and reports the would-be class key.
func TestClassifyMissDoesNotInsert(t *testing.T) {
	svc := newTestService(3, Options{})
	f := tt.MustFromHex(3, "96")
	r := svc.ClassifyCtx(context.Background(), []*tt.TT{f})[0]
	if r.Hit || r.Index != -1 || r.Rep != nil {
		t.Fatal("miss must report Hit=false with no representative")
	}
	if r.Key == 0 {
		t.Fatal("miss must still report the class key")
	}
	if svc.Store().Size() != 0 {
		t.Fatal("Classify grew the store")
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats hits=%d misses=%d, want 0 and 1", st.Hits, st.Misses)
	}
}

// TestCache asserts repeated classifications are served from the LRU and
// stay identical to the uncached result.
func TestCache(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(501))
	n := 4
	svc := newTestService(n, Options{Workers: 1, CacheSize: 8})
	base := tt.Random(n, rng)
	svc.InsertCtx(ctx, []*tt.TT{base})

	first := svc.ClassifyCtx(ctx, []*tt.TT{base})[0]
	second := svc.ClassifyCtx(ctx, []*tt.TT{base})[0]
	if !second.Hit || second.Key != first.Key || second.Index != first.Index {
		t.Fatal("cached result differs from uncached")
	}
	if !second.Witness.Apply(second.Rep).Equal(base) {
		t.Fatal("cached witness does not verify")
	}
	st := svc.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", st.CacheHits)
	}
	if st.CacheEntries != 1 || svc.cache.cap != 8 {
		t.Fatalf("cache entries=%d cap=%d, want 1 and 8", st.CacheEntries, svc.cache.cap)
	}
}

// TestCacheBounded floods the cache past capacity and asserts eviction.
func TestCacheBounded(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(502))
	n := 6
	svc := newTestService(n, Options{CacheSize: 4})
	fs := gen.UniformRandom(n, 64, 503)
	svc.InsertCtx(ctx, fs)
	for _, f := range fs {
		svc.ClassifyCtx(ctx, []*tt.TT{f})
	}
	if got := svc.Stats().CacheEntries; got > 4 {
		t.Fatalf("cache grew to %d entries past capacity 4", got)
	}
	_ = rng
}

// TestCacheDisabled asserts CacheSize < 0 turns the cache off.
func TestCacheDisabled(t *testing.T) {
	ctx := context.Background()
	svc := newTestService(3, Options{CacheSize: -1})
	f := tt.MustFromHex(3, "e8")
	svc.InsertCtx(ctx, []*tt.TT{f})
	svc.ClassifyCtx(ctx, []*tt.TT{f})
	svc.ClassifyCtx(ctx, []*tt.TT{f})
	if st := svc.Stats(); svc.cache != nil || st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

// TestConcurrentBatches hammers the pipeline from several goroutines (run
// under -race): mixed inserts and classifications of NPN variants.
func TestConcurrentBatches(t *testing.T) {
	ctx := context.Background()
	n := 5
	seedRng := rand.New(rand.NewSource(504))
	base := make([]*tt.TT, 20)
	for i := range base {
		base[i] = tt.Random(n, seedRng)
	}
	svc := newTestService(n, Options{Workers: 4, CacheSize: 32})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(600 + g)))
			for round := 0; round < 8; round++ {
				batch := make([]*tt.TT, 16)
				for i := range batch {
					batch[i] = npn.RandomTransform(n, rng).Apply(base[rng.Intn(len(base))])
				}
				if g%2 == 0 {
					svc.InsertCtx(ctx, batch)
				} else {
					for i, r := range svc.ClassifyCtx(ctx, batch) {
						if r.Hit && !r.Witness.Apply(r.Rep).Equal(batch[i]) {
							t.Error("concurrent witness does not verify")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if svc.Store().Size() > len(base) {
		t.Fatalf("store holds %d classes for %d base functions", svc.Store().Size(), len(base))
	}
}

// TestStatsCounters checks the insert-side counters, including chained
// collisions under a weak signature config.
func TestStatsCounters(t *testing.T) {
	n := 4
	cfg := core.Config{OCV1: true, OIV: true}
	svc := New(store.New(n, store.Options{Shards: 2, Config: cfg}), Options{Workers: 1})
	a := tt.MustFromHex(n, "0118")
	b := tt.MustFromHex(n, "0182") // MSV collision with a, inequivalent
	results := svc.InsertCtx(context.Background(), []*tt.TT{a, b, a})
	if !results[0].New || !results[1].New || results[2].New {
		t.Fatalf("insert outcomes %+v", results)
	}
	st := svc.Stats()
	if st.Inserts != 3 || st.Created != 2 || st.Collisions != 1 {
		t.Fatalf("inserts=%d created=%d collisions=%d, want 3, 2, 1", st.Inserts, st.Created, st.Collisions)
	}
	if chains, _ := svc.Store().ChainStats(); svc.Store().Size() != 2 || chains != 1 {
		t.Fatalf("store holds %d classes in %d chains, want 2 in 1", svc.Store().Size(), chains)
	}
	if st.Batches != 1 {
		t.Fatalf("batches=%d, want 1", st.Batches)
	}

	// Classify [a, a, b, b] with a cached and b stored but not cached: both
	// copies of a are LRU hits, and only b's second copy is deduped.
	ctx := context.Background()
	svc.ClassifyCtx(ctx, []*tt.TT{a})
	before := svc.Stats()
	res := svc.ClassifyCtx(ctx, []*tt.TT{a, a, b, b})
	st = svc.Stats()
	if d := st.CacheHits - before.CacheHits; d != 2 {
		t.Errorf("cache hits +%d, want +2", d)
	}
	if d := st.Deduped - before.Deduped; d != 1 {
		t.Errorf("deduped +%d, want +1", d)
	}
	if d := st.Hits - before.Hits; d != 4 {
		t.Errorf("hits +%d, want +4", d)
	}
	for i := 1; i < len(res); i += 2 {
		if !res[i].Hit || res[i].Key != res[i-1].Key || res[i].Index != res[i-1].Index || res[i].Witness != res[i-1].Witness {
			t.Errorf("copy %d answered %+v, its first copy %+v", i, res[i], res[i-1])
		}
	}
}

// TestClassifyHitAllocs: a batch the LRU answers whole allocates a few
// objects per batch and none per function.
func TestClassifyHitAllocs(t *testing.T) {
	ctx := context.Background()
	n := 6
	for _, size := range []int{16, 256} {
		svc := newTestService(n, Options{})
		fs := gen.UniformRandom(n, size, int64(700+size))
		svc.InsertCtx(ctx, fs)
		svc.ClassifyCtx(ctx, fs) // caches every function
		allocs := testing.AllocsPerRun(100, func() {
			for i, r := range svc.ClassifyCtx(ctx, fs) {
				if !r.Hit {
					t.Fatalf("size %d: function %d missed", size, i)
				}
			}
		})
		if st := svc.Stats(); st.Lookups-st.CacheHits != int64(size) {
			t.Fatalf("size %d: %d lookups, %d LRU hits; the measured batches were not answered by the LRU alone", size, st.Lookups, st.CacheHits)
		}
		t.Logf("size %d: %.1f allocs per all-hit batch", size, allocs)
		if allocs > 8 {
			t.Errorf("size %d: an all-hit batch allocates %.1f objects, want at most 8", size, allocs)
		}
	}
}

// TestBatchDedup: duplicate keys within one batch must cost one store
// operation each, answer every copy identically, and be counted.
func TestBatchDedup(t *testing.T) {
	ctx := context.Background()
	n := 5
	svc := newTestService(n, Options{Workers: 3, CacheSize: -1})
	rng := rand.New(rand.NewSource(900))
	a, b := tt.Random(n, rng), tt.Random(n, rng)

	// Insert a batch with heavy duplication: a ×4, b ×2.
	batch := []*tt.TT{a, b, a, a, b, a}
	ins := svc.InsertCtx(ctx, batch)
	if !ins[0].New || !ins[1].New {
		t.Fatal("first copies did not found their classes")
	}
	for i := 2; i < len(batch); i++ {
		want := ins[0]
		if batch[i] == b {
			want = ins[1]
		}
		if ins[i].Key != want.Key || ins[i].Index != want.Index {
			t.Fatalf("insert %d diverged from its first copy", i)
		}
		if ins[i].New {
			t.Fatalf("duplicate copy %d reported New", i)
		}
	}
	if created := svc.Stats().Created; created != 2 {
		t.Fatalf("created %d classes from a 2-distinct batch", created)
	}
	if st := svc.Stats(); st.Deduped != 4 {
		t.Fatalf("insert deduped %d, want 4", st.Deduped)
	}

	// Classify the same shape: 4 duplicates saved, hits still count per copy.
	res := svc.ClassifyCtx(ctx, batch)
	for i := range batch {
		if !res[i].Hit {
			t.Fatalf("classify %d missed", i)
		}
	}
	st := svc.Stats()
	if st.Deduped != 8 {
		t.Fatalf("total deduped %d, want 8", st.Deduped)
	}
	if st.Hits != int64(len(batch)) || st.Lookups != int64(len(batch)) {
		t.Fatalf("hits %d lookups %d, want %d each (dedup must not skew per-copy counters)",
			st.Hits, st.Lookups, len(batch))
	}

	// A dedup hit must carry the same certified result as a store hit.
	if res[2].Key != res[0].Key || res[2].Index != res[0].Index || !res[2].Rep.Equal(res[0].Rep) {
		t.Fatal("scattered duplicate result diverged")
	}
}

// TestInflightBatches: the live-depth gauge is 1 while a batch executes
// (observed via the ObserveBatch hook, which runs before the decrement)
// and 0 once the call returns — the signal edge load shedding keys off.
func TestInflightBatches(t *testing.T) {
	n := 3
	var svc *Service
	var during int64
	svc = newTestService(n, Options{
		Workers: 1,
		ObserveBatch: func(op string, size int, d time.Duration) {
			during = svc.InflightBatches()
		},
	})
	svc.ClassifyCtx(context.Background(), []*tt.TT{tt.MustFromHex(n, "e8")})
	if during != 1 {
		t.Fatalf("InflightBatches during batch = %d, want 1", during)
	}
	if got := svc.InflightBatches(); got != 0 {
		t.Fatalf("InflightBatches after batch = %d, want 0", got)
	}
	if svc.workers != 1 {
		t.Fatalf("workers = %d, want 1", svc.workers)
	}
}
