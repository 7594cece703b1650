package core

import (
	"repro/internal/par"
	"repro/internal/tt"
)

// ClassifyParallel computes the classification of fs split into `workers`
// chunks (0 = GOMAXPROCS), which par.Chunks runs on the caller and on its
// idle shared helpers. Key hashing — the dominant cost — is embarrassingly
// parallel because every chunk owns a private Classifier with its own
// signature engine; only the final bucket assembly is sequential. The
// result is identical to Classify. The paper's testbed is a 20-core
// machine; this is the corresponding throughput mode.
func ClassifyParallel(n int, cfg Config, fs []*tt.TT, workers int) *Result {
	keys := make([]classKey, len(fs))
	par.Chunks(len(fs), workers, func(lo, hi int) {
		cls := New(n, cfg)
		for i := lo; i < hi; i++ {
			keys[i] = cls.classKey(fs[i])
		}
	})
	return bucket(keys)
}
