package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/npn"
	"repro/internal/tt"
)

// batchSize is the number of functions per request: a mapping or
// synthesis caller classifying one node's cuts at a time.
const batchSize = 16

// corpusSeed fixes the paper's circuit-cut corpus. Every workload seed
// draws its traffic from the same corpus, so seeds vary the requests, not
// the size of the store they run against.
const corpusSeed = 1

// workloadDef describes one workload.
type workloadDef struct {
	insert  bool // traffic goes to /v2/insert instead of /v2/classify
	durable bool // npnserve runs with -data on the local disk
	// reqPerSecond × --seconds is the fixed request count of a run, sized
	// so a run measures about --seconds on a 2-vCPU machine. A fixed count
	// (not a fixed duration) keeps store size, WAL bytes and RSS equal on
	// both commits of a comparison; a faster build just finishes sooner.
	reqPerSecond int
	// setupReps is how many times a run sets the server up; setup_s is
	// their median.
	setupReps int
}

var workloads = map[string]workloadDef{
	"classify-hot":   {reqPerSecond: 7000, setupReps: 5},
	"classify-cold":  {reqPerSecond: 2400, setupReps: 5},
	"insert-durable": {insert: true, durable: true, reqPerSecond: 2500, setupReps: 15},
}

// requests returns the fixed request count of a run.
func (d workloadDef) requests(cfg config) int {
	if cfg.small {
		return 40
	}
	return d.reqPerSecond * cfg.seconds
}

// query is one function of the traffic with its provenance: src indexes
// the set-up function it is an NPN disguise of, or is -1 for a uniform
// random table.
type query struct {
	f   *tt.TT
	hex string
	src int
}

// inputs are everything a run sends, generated before any server starts.
type inputs struct {
	setup  []*tt.TT   // inserted at set-up, in this order
	warm   [][]query  // classify-hot: the pool, classified once at set-up
	stream [][]query  // the measured requests
	hexes  [][]string // stream[i] as the client sends it
	fs     [][]*tt.TT // stream[i] as the in-process layers take it
	insert bool
}

// corpus returns the deduplicated n = 6, 7, 8 cut functions of the
// synthetic circuit suite (bench.WorkloadCircuit at MaxPerNode 16, about
// 27k functions); small trims it for tests.
func corpus(small bool) []*tt.TT {
	o := bench.WorkloadOpts{Kind: bench.WorkloadCircuit, MaxPerNode: 16, Seed: corpusSeed}
	if small {
		o.MaxPerNode, o.MaxFuncs = 4, 300
	}
	var fs []*tt.TT
	for n := 6; n <= 8; n++ {
		fs = append(fs, bench.Workload(n, o)...)
	}
	return fs
}

// generate builds a workload's inputs from its seed.
func generate(name string, seed int64, requests int, small bool) (*inputs, error) {
	def := workloads[name]
	rng := rand.New(rand.NewSource(seed))
	c := corpus(small)
	in := &inputs{insert: def.insert}
	disguise := func(src int) query {
		f := in.setup[src]
		g := npn.RandomTransform(f.NumVars(), rng).Apply(f)
		return query{f: g, hex: g.Hex(), src: src}
	}
	random := func() query {
		f := tt.Random(6+rng.Intn(3), rng)
		return query{f: f, hex: f.Hex(), src: -1}
	}
	in.stream = make([][]query, requests)
	switch name {
	case "classify-hot":
		// A fixed pool of disguised corpus functions, half at n = 6 and
		// half at n = 8, drawn with Zipf skew: after the warm-up pass the
		// per-arity LRU holds the whole pool.
		per := 1024
		if small {
			per = 64
		}
		for _, n := range []int{6, 8} {
			var fs []*tt.TT
			for _, f := range c {
				if f.NumVars() == n {
					fs = append(fs, f)
				}
			}
			if len(fs) < per {
				return nil, fmt.Errorf("corpus holds %d functions at n=%d, want %d", len(fs), n, per)
			}
			for _, i := range rng.Perm(len(fs))[:per] {
				in.setup = append(in.setup, fs[i])
			}
		}
		// Zipf ranks alternate between the arities (in.setup holds the
		// n = 6 picks, then the n = 8 picks), so every seed puts the same
		// share of the traffic on each arity.
		pool := make([]query, len(in.setup))
		for k := 0; k < per; k++ {
			pool[2*k], pool[2*k+1] = disguise(k), disguise(per+k)
		}
		for lo := 0; lo < len(pool); lo += batchSize {
			in.warm = append(in.warm, pool[lo:min(lo+batchSize, len(pool))])
		}
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
		for r := range in.stream {
			b := make([]query, batchSize)
			for j := range b {
				b[j] = pool[z.Uint64()]
			}
			in.stream[r] = b
		}
	case "classify-cold", "insert-durable":
		// Fresh disguises of stored corpus classes mixed with uniform
		// random tables: 1 in 4 random on classify-cold (misses), 3 in 4
		// on insert-durable (new classes).
		in.setup = c
		randomOf4 := 1
		if def.insert {
			randomOf4 = 3
		}
		for r := range in.stream {
			b := make([]query, batchSize)
			for j := range b {
				if rng.Intn(4) < randomOf4 {
					b[j] = random()
				} else {
					b[j] = disguise(rng.Intn(len(c)))
				}
			}
			in.stream[r] = b
		}
	}
	in.hexes = make([][]string, len(in.stream))
	in.fs = make([][]*tt.TT, len(in.stream))
	for r, b := range in.stream {
		in.hexes[r] = make([]string, len(b))
		in.fs[r] = make([]*tt.TT, len(b))
		for j, q := range b {
			in.hexes[r][j], in.fs[r][j] = q.hex, q.f
		}
	}
	return in, nil
}

// functionsOf returns a batch's tables.
func functionsOf(qs []query) []*tt.TT {
	fs := make([]*tt.TT, len(qs))
	for i, q := range qs {
		fs[i] = q.f
	}
	return fs
}
