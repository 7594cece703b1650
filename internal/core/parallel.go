package core

import (
	"repro/internal/par"
	"repro/internal/tt"
)

// ClassifyParallel computes the classification of fs using `workers`
// goroutines (0 = GOMAXPROCS). Key hashing — the dominant cost — is
// embarrassingly parallel because every worker owns a private Classifier
// with its own signature engine; only the final bucket assembly is
// sequential. The result is identical to Classify. The paper's testbed is a
// 20-core machine; this is the corresponding throughput mode.
func ClassifyParallel(n int, cfg Config, fs []*tt.TT, workers int) *Result {
	type keyed struct {
		hash uint64
		key  string // only populated in strict mode
	}
	keys := make([]keyed, len(fs))
	par.Chunks(len(fs), workers, func(lo, hi int) {
		cls := New(n, cfg)
		for i := lo; i < hi; i++ {
			if cfg.StrictKeys {
				keys[i].key = string(cls.KeyBytes(fs[i]))
			} else {
				keys[i].hash = cls.Hash(fs[i])
			}
		}
	})

	r := &Result{ClassOf: make([]int, len(fs))}
	// One bucket per distinct keyed value: the unused field is zero in
	// every entry, so equality is by hash, or by full key in strict mode.
	ids := make(map[keyed]int)
	for i, k := range keys {
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
			r.Sizes = append(r.Sizes, 0)
		}
		r.ClassOf[i] = id
		r.Sizes[id]++
	}
	r.NumClasses = len(ids)
	return r
}
