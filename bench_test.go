// Package repro's root benchmark suite regenerates the paper's evaluation:
// one benchmark per table/figure (Tables II–III, Figs. 4–5) plus the design
// ablations called out in DESIGN.md (scalar vs bit-sliced sensitivity,
// naive vs spectral OSDV, exhaustive canon vs matcher). Run with:
//
//	go test -bench=. -benchmem
//
// The npnbench command produces the paper-formatted tables; these benchmarks
// measure the per-function costs behind them.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/baseline"
	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cut"
	"repro/internal/decomp"
	"repro/internal/federation"
	"repro/internal/gen"
	"repro/internal/mapper"
	"repro/internal/match"
	"repro/internal/npn"
	"repro/internal/service"
	"repro/internal/sig"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/internal/wal"
)

var (
	workloadOnce sync.Once
	workloads    map[int][]*tt.TT
)

// circuitWorkload returns a cached deduplicated cut-function workload.
func circuitWorkload(n int) []*tt.TT {
	workloadOnce.Do(func() {
		workloads = make(map[int][]*tt.TT)
		for _, k := range []int{4, 5, 6, 7, 8} {
			workloads[k] = bench.Workload(k, bench.WorkloadOpts{
				Kind: bench.WorkloadCircuit, MaxPerNode: 8, Seed: 1, MaxFuncs: 4000,
			})
		}
	})
	return workloads[n]
}

// BenchmarkTable2SignatureVectors measures per-function MSV key computation
// for each signature combination of Table II on the 6-variable circuit
// workload.
func BenchmarkTable2SignatureVectors(b *testing.B) {
	fs := circuitWorkload(6)
	for _, cfg := range bench.Table2Configs() {
		cfg := cfg
		cfg.FastOSDV = true
		b.Run(cfg.Enabled(), func(b *testing.B) {
			cls := core.New(6, cfg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cls.Hash(fs[i%len(fs)])
			}
		})
	}
}

// BenchmarkTable3Classifiers measures the per-function cost of every
// classifier column of Table III on the 6-variable circuit workload.
func BenchmarkTable3Classifiers(b *testing.B) {
	fs := circuitWorkload(6)
	b.Run("kitty-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := fs[i%len(fs)]
			npn.CanonWord(f.Word(), 6)
		}
	})
	for _, bl := range []*baseline.Classifier{
		baseline.NewHuang(), baseline.NewHierarchical(), baseline.NewHybrid(),
	} {
		bl := bl
		b.Run(bl.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl.Key(fs[i%len(fs)])
			}
		})
	}
	b.Run("ours", func(b *testing.B) {
		cfg := core.ConfigAll()
		cfg.FastOSDV = true
		cls := core.New(6, cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cls.Hash(fs[i%len(fs)])
		}
	})
}

// BenchmarkFig4DiscriminatorSearch measures the exhaustive 4-variable scan
// behind Fig. 4 (one iteration = the whole 65536-function universe).
func BenchmarkFig4DiscriminatorSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunFig4(nil, true)
		if r.SplitByOIV == 0 {
			b.Fatal("Fig.4 phenomenon vanished")
		}
	}
}

// BenchmarkFig5Scaling measures end-to-end classification of a fixed-size
// consecutive-encoding workload, the paper's Fig. 5 streaming setting.
func BenchmarkFig5Scaling(b *testing.B) {
	for _, n := range []int{5, 7} {
		n := n
		fs := gen.Consecutive(n, 20000, 99)
		b.Run(map[int]string{5: "5bit-20k", 7: "7bit-20k"}[n], func(b *testing.B) {
			cfg := core.ConfigAll()
			cfg.FastOSDV = true
			for i := 0; i < b.N; i++ {
				cls := core.New(n, cfg)
				cls.NumClasses(fs)
			}
		})
	}
}

// BenchmarkFig5HybridBaseline is the comparison series of Fig. 5: the
// hybrid canonical-form baseline on the same stream.
func BenchmarkFig5HybridBaseline(b *testing.B) {
	for _, n := range []int{5, 7} {
		n := n
		fs := gen.Consecutive(n, 2000, 99)
		b.Run(map[int]string{5: "5bit-2k", 7: "7bit-2k"}[n], func(b *testing.B) {
			hyb := baseline.NewHybrid()
			for i := 0; i < b.N; i++ {
				hyb.NumClasses(fs)
			}
		})
	}
}

// BenchmarkAblationSensitivity compares the scalar and bit-sliced paths for
// the per-minterm sensitivity profile (DESIGN.md ablation 1).
func BenchmarkAblationSensitivity(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		n := n
		fs := gen.UniformRandom(n, 64, 5)
		e := sig.NewEngine(n)
		b.Run(map[int]string{6: "scalar-n6", 8: "scalar-n8", 10: "scalar-n10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.SenProfileScalar(fs[i%len(fs)])
			}
		})
		b.Run(map[int]string{6: "bitsliced-n6", 8: "bitsliced-n8", 10: "bitsliced-n10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.SenProfile(fs[i%len(fs)])
			}
		})
	}
}

// BenchmarkAblationOSDV compares the quadratic pair enumeration and the
// fast computation of OSDV (DESIGN.md ablation 2) — spectral (Krawtchouk)
// for large sensitivity classes, direct enumeration below the crossover.
func BenchmarkAblationOSDV(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		n := n
		fs := gen.UniformRandom(n, 32, 6)
		e := sig.NewEngine(n)
		b.Run(map[int]string{6: "naive-n6", 8: "naive-n8", 10: "naive-n10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.OSDV01(fs[i%len(fs)])
			}
		})
		b.Run(map[int]string{6: "spectral-n6", 8: "spectral-n8", 10: "spectral-n10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.OSDV01Fast(fs[i%len(fs)])
			}
		})
	}
}

// BenchmarkAblationBalancedPhase measures the extra cost of the balanced-
// function double-key computation (DESIGN.md ablation 3).
func BenchmarkAblationBalancedPhase(b *testing.B) {
	n := 8
	cfg := core.ConfigAll()
	cfg.FastOSDV = true
	cls := core.New(n, cfg)
	unb := tt.FromFunc(n, func(x int) bool { return x%5 == 0 }) // unbalanced
	bal := tt.FromFunc(n, func(x int) bool { return x&1 == 1 }) // balanced
	b.Run("unbalanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cls.KeyBytes(unb)
		}
	})
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cls.KeyBytes(bal)
		}
	})
}

// BenchmarkAblationStrictKeys measures hash bucketing vs full-key bucketing
// (DESIGN.md ablation 4).
func BenchmarkAblationStrictKeys(b *testing.B) {
	fs := gen.UniformRandom(6, 4000, 8)
	for _, strict := range []bool{false, true} {
		strict := strict
		name := "hashed"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.ConfigAll()
			cfg.FastOSDV = true
			cfg.StrictKeys = strict
			for i := 0; i < b.N; i++ {
				core.New(6, cfg).NumClasses(fs)
			}
		})
	}
}

// BenchmarkSifting measures the semi-canonical sifting form — the cheap
// heuristic alternative to exhaustive canonicalization, usable at any n.
func BenchmarkSifting(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		n := n
		fs := gen.UniformRandom(n, 64, 11)
		b.Run(map[int]string{6: "n6", 8: "n8", 10: "n10"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				npn.SiftCanon(fs[i%len(fs)])
			}
		})
	}
}

// BenchmarkAblationRefinement compares the monolithic all-signature
// classifier against the staged refinement classifier that computes
// expensive vectors only inside ambiguous buckets.
func BenchmarkAblationRefinement(b *testing.B) {
	fs := circuitWorkload(7)
	b.Run("monolithic", func(b *testing.B) {
		cfg := core.ConfigAll()
		cfg.FastOSDV = true
		cfg.StrictKeys = true
		for i := 0; i < b.N; i++ {
			core.New(7, cfg).Classify(fs)
		}
	})
	b.Run("refined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyRefined(7, core.DefaultStages(), fs)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		cfg := core.ConfigAll()
		cfg.FastOSDV = true
		for i := 0; i < b.N; i++ {
			core.ClassifyParallel(7, cfg, fs, 0)
		}
	})
}

// BenchmarkExactCanon measures exhaustive canonicalization per function by
// arity — the kitty column cost model of Table III.
func BenchmarkExactCanon(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		n := n
		fs := gen.UniformRandom(n, 128, 9)
		b.Run(map[int]string{4: "n4", 5: "n5", 6: "n6"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := fs[i%len(fs)]
				npn.CanonWord(f.Word(), n)
			}
		})
	}
}

// BenchmarkMatcher measures the pairwise exact matcher on equivalent pairs
// (worst case: a witness must be found) at n = 8.
func BenchmarkMatcher(b *testing.B) {
	n := 8
	fs := gen.UniformRandom(n, 64, 10)
	m := match.NewMatcher(n)
	pairs := make([]*tt.TT, len(fs))
	for i, f := range fs {
		tr := npn.Identity(n)
		tr.Perm[0], tr.Perm[n-1] = uint8(n-1), 0
		tr.NegMask = 0b1010
		pairs[i] = tr.Apply(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Equivalent(fs[i%len(fs)], pairs[i%len(fs)]); !ok {
			b.Fatal("pair not matched")
		}
	}
}

// BenchmarkMapper measures end-to-end LUT mapping of an arithmetic circuit.
func BenchmarkMapper(b *testing.B) {
	g := gen.ArrayMultiplier(6)
	for _, mode := range []mapper.Mode{mapper.Depth, mapper.Area} {
		mode := mode
		name := map[mapper.Mode]string{mapper.Depth: "depth", mapper.Area: "area"}[mode]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mapper.Map(g, mapper.Options{K: 6, Mode: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBDD measures BDD construction from truth tables — the canonical
// representation the signature classifier avoids building.
func BenchmarkBDD(b *testing.B) {
	fs := gen.UniformRandom(10, 32, 12)
	b.Run("fromTT-n10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := bdd.New(10)
			m.FromTT(fs[i%len(fs)])
		}
	})
}

// BenchmarkDecompose measures disjoint-decomposition extraction.
func BenchmarkDecompose(b *testing.B) {
	fs := gen.CircuitWorkload(8, 8, 13)
	if len(fs) > 256 {
		fs = fs[:256]
	}
	b.Run("circuit-n8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.Decompose(fs[i%len(fs)])
		}
	})
}

// BenchmarkCutEnumeration measures the workload-extraction pipeline itself:
// cut enumeration plus per-cut truth tables over an arithmetic circuit.
func BenchmarkCutEnumeration(b *testing.B) {
	g := gen.ArrayMultiplier(6)
	b.Run("enumerate-k6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cuts := cut.Enumerate(g, cut.Options{K: 6, MaxPerNode: 8})
			cutEnumSink = len(cuts)
		}
	})
	b.Run("harvest-k5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs := cut.Harvest(g, 5, cut.Options{K: 5, MaxPerNode: 8})
			cutEnumSink = len(fs)
		}
	})
}

var cutEnumSink int

// BenchmarkStoreLookup measures single-function Store.LookupCtx under the
// shipped full MSV key against a warm store, on three query streams per
// arity (n6 and n8):
//
//   - hit: NPN disguises of the deduplicated circuit-cut workload (<=512
//     functions). A warm pass publishes the hints, so a hit costs the
//     cheap OCV1+OIV hash plus one budgeted match against a memoized
//     profile; this is the path of //npn:noalloc annotations that
//     cmd/npnlint checks and store.TestNoallocParity pins.
//   - miss: uniform random tables, absent from the store: the cheap hash,
//     a hint probe that finds nothing, and the full MSV hash.
//   - crafted-miss: the adversarial family f = x0⊕x1⊕h(rest), whose
//     classes share cheap keys and defeat the matcher's pruning. The store
//     holds seeded members, each hit once so their hints exist; queries
//     are further members of other NPN classes. A hint attempt is capped
//     by the store's node budget and an exhausted one makes the cheap key
//     ambiguous, so this row bounds the worst case the hints add.
func BenchmarkStoreLookup(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{6, 8} {
		stored, disguises, misses := storeLookupWorkloads(n)
		for _, row := range []struct {
			name    string
			fs      []*tt.TT
			queries []*tt.TT
			hit     bool
		}{
			{"hit", stored[0], disguises, true},
			{"miss", stored[0], misses[0], false},
			{"crafted-miss", stored[1], misses[1], false},
		} {
			st := store.New(n, store.Options{})
			for _, f := range row.fs {
				st.AddCtx(ctx, f)
			}
			// Warm pass: one disguise hit per stored class builds its
			// profile and publishes its hint, as serving traffic would.
			for i, f := range row.fs {
				if _, _, _, _, ok := st.LookupCtx(ctx, disguise(n, i, f)); !ok {
					b.Fatal("warm lookup missed")
				}
			}
			// One pass over the queries settles which cheap keys an
			// exhausted hint attempt turned ambiguous.
			for _, q := range row.queries {
				st.LookupCtx(ctx, q)
			}
			b.Run(fmt.Sprintf("%s-n%d", row.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, _, ok := st.LookupCtx(ctx, row.queries[i%len(row.queries)]); ok != row.hit {
						b.Fatalf("lookup hit=%v, want %v", ok, row.hit)
					}
				}
			})
		}
	}
}

// disguise returns a fixed NPN disguise of f that moves variables and both
// output phases, so certification needs a real witness search.
func disguise(n, i int, f *tt.TT) *tt.TT {
	tr := npn.Identity(n)
	tr.Perm[0], tr.Perm[n-1] = uint8(n-1), 0
	tr.NegMask = 0b0110
	tr.OutNeg = i%2 == 1
	return tr.Apply(f)
}

// storeLookupWorkloads returns BenchmarkStoreLookup's n-variable inputs:
// the stored circuit and crafted functions, disguises of the circuit
// ones, and the random and crafted misses.
func storeLookupWorkloads(n int) (stored [2][]*tt.TT, disguises []*tt.TT, misses [2][]*tt.TT) {
	stored[0] = circuitWorkload(n)
	if len(stored[0]) > 512 {
		stored[0] = stored[0][:512]
	}
	for i, f := range stored[0] {
		disguises = append(disguises, disguise(n, i, f))
	}
	rng := rand.New(rand.NewSource(int64(1600 + n)))
	for len(misses[0]) < 512 {
		misses[0] = append(misses[0], tt.Random(n, rng))
	}
	crafted := func() *tt.TT {
		h := tt.Random(n-2, rng)
		return tt.FromFunc(n, func(x int) bool { return (x&1 == 1) != (x>>1&1 == 1) != h.Get(x>>2) })
	}
	// At n = 6 the family has only a few hundred NPN classes: store 64 of
	// them and miss on others, told apart by exact canonical form. At
	// n = 8 two random members are inequivalent.
	keep := 256
	if n <= npn.MaxExactVars {
		keep = 64
	}
	seen := map[uint64]bool{}
	for k := 0; k < 4000 && len(misses[1]) < 512; k++ {
		f := crafted()
		if n <= npn.MaxExactVars {
			c := npn.ExactCanon(f).Word()
			if seen[c] {
				continue
			}
			seen[c] = true
		}
		if len(stored[1]) < keep {
			stored[1] = append(stored[1], f)
		} else {
			misses[1] = append(misses[1], f)
		}
	}
	return stored, disguises, misses
}

// BenchmarkTransportClassify compares the two /v2/classify transports end
// to end through a real HTTP server: the JSON envelope versus the
// length-framed binary format of docs/WIRE.md, same warm one-arity
// federation, same 16-function batch of NPN-disguised hits per request. Each
// sub-benchmark reports the payload sizes as req-B and resp-B metrics, so
// the bytes-on-wire delta reads next to the ns/op delta. The binary rows
// measure the full stack — codec, negotiation, handler, store — not the
// codec in isolation (that cost is bounded by TestBinaryCodecAllocs).
func BenchmarkTransportClassify(b *testing.B) {
	const batch = 16
	for _, n := range []int{6, 8} {
		fs := circuitWorkload(n)
		if len(fs) > batch {
			fs = fs[:batch]
		}
		reg, err := federation.New(n, n, federation.Options{
			Service: service.Options{Workers: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		ins, err := reg.InsertCtx(context.Background(), fs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ins {
			if r.Index < 0 {
				b.Fatal("insert refused")
			}
		}
		queries := make([]*tt.TT, len(fs))
		hexes := make([]string, len(fs))
		for i, f := range fs {
			queries[i] = disguise(n, i, f)
			hexes[i] = queries[i].Hex()
		}
		srv := httptest.NewServer(federation.NewHandler(reg))

		jsonBody, err := json.Marshal(api.BatchRequest{Functions: hexes})
		if err != nil {
			b.Fatal(err)
		}
		binBody := api.EncodeBinaryRequest(queries, false)

		for _, mode := range []struct {
			name        string
			contentType string
			accept      string
			body        []byte
		}{
			{"json", "application/json", "", jsonBody},
			{"binary", api.BinaryContentType, api.BinaryContentType, binBody},
		} {
			b.Run(fmt.Sprintf("%s-n%d-batch%d", mode.name, n, batch), func(b *testing.B) {
				post := func() int {
					req, err := http.NewRequest(http.MethodPost, srv.URL+"/v2/classify", bytes.NewReader(mode.body))
					if err != nil {
						b.Fatal(err)
					}
					req.Header.Set("Content-Type", mode.contentType)
					if mode.accept != "" {
						req.Header.Set("Accept", mode.accept)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						b.Fatal(err)
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					if err != nil || resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d err %v", resp.StatusCode, err)
					}
					return len(body)
				}
				respBytes := post()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post()
				}
				b.ReportMetric(float64(len(mode.body)), "req-B")
				b.ReportMetric(float64(respBytes), "resp-B")
			})
		}
		srv.Close()
	}
}

// BenchmarkWALReplay measures warm-restart cost: rebuilding a 10k-class
// store by replaying its write-ahead log (store.Recover) versus
// re-classifying the same 10k functions from scratch through the
// certified AddCtx path. Log records carry the class key each insert was
// certified under, so replay of a same-configuration log skips signature
// hashing and matcher certification entirely — it is pure chain
// publication — which is why recovery is expected to run at least 5x
// faster than re-classification (in practice closer to two orders of
// magnitude at n=7).
func BenchmarkWALReplay(b *testing.B) {
	ctx := context.Background()
	n := 7
	fs := gen.UniformRandom(n, 10000, 77)

	dir := b.TempDir()
	st, w, err := store.Recover(dir, n, store.Options{}, wal.Options{FsyncEvery: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range fs {
		st.AddCtx(ctx, f)
	}
	classes := st.Size()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, w, err := store.Recover(dir, n, store.Options{}, wal.Options{FsyncEvery: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			if r.Size() != classes {
				b.Fatalf("recovered %d classes, want %d", r.Size(), classes)
			}
			w.Close()
		}
	})
	b.Run("reclassify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := store.New(n, store.Options{})
			for _, f := range fs {
				fresh.AddCtx(ctx, f)
			}
			if fresh.Size() != classes {
				b.Fatalf("classified %d classes, want %d", fresh.Size(), classes)
			}
		}
	})
}

// BenchmarkStoreThroughput compares the online class store against the
// offline core.ClassifyParallel on the 6-variable circuit workload. The
// batch pipeline reuses ClassifyParallel's chunking, so the comparison
// isolates the serving overheads: engine pooling, shard locking and (in
// the insert/classify cases) matcher certification of every hit;
// "service-cached" is the steady-state serving mode where repeated
// functions are answered from the LRU.
func BenchmarkStoreThroughput(b *testing.B) {
	ctx := context.Background()
	fs := circuitWorkload(6)
	cfg := core.ConfigAll()
	cfg.FastOSDV = true

	b.Run("classify-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ClassifyParallel(6, cfg, fs, 0)
		}
	})
	b.Run("store-insert", func(b *testing.B) {
		// Cold build: the whole class store constructed from the batch.
		for i := 0; i < b.N; i++ {
			svc := service.New(store.New(6, store.Options{}), service.Options{CacheSize: -1})
			svc.InsertCtx(ctx, fs)
		}
	})
	b.Run("service-classify", func(b *testing.B) {
		// Warm store, no cache: every answer re-certified by the matcher.
		svc := service.New(store.New(6, store.Options{}), service.Options{CacheSize: -1})
		svc.InsertCtx(ctx, fs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.ClassifyCtx(ctx, fs)
		}
	})
	b.Run("service-cached", func(b *testing.B) {
		// Steady state: warm store and warm LRU.
		svc := service.New(store.New(6, store.Options{}), service.Options{CacheSize: len(fs) * 2})
		svc.InsertCtx(ctx, fs)
		svc.ClassifyCtx(ctx, fs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.ClassifyCtx(ctx, fs)
		}
	})
}
