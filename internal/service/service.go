// Package service is the online classification pipeline on top of
// internal/store: batch classify/insert requests, a bounded LRU cache of
// recent function → (class, witness) results, and atomic counters (hits,
// misses, collisions, dedup) exposed as a stats snapshot. The pipeline is
// transport-agnostic: internal/federation serves one Service per arity
// over HTTP, and it is usable in-process.
//
// A classify batch probes the LRU for every function on the calling
// goroutine and answers the hits there. The rest — every function of an
// insert — is deduped: N copies of a function cost one store operation,
// and the later copies get the first copy's result. The unique functions
// split into contiguous chunks by par.Chunks, since signature hashing
// dominates and every store operation borrows a private engine pair.
// Results keep the input order.
package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/npn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/tt"
)

// DefaultCacheSize is the LRU capacity used when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// Options configures a Service.
type Options struct {
	// Workers is the number of chunks a batch's store work splits into
	// (par.Chunks). Zero means GOMAXPROCS.
	Workers int
	// CacheSize bounds the function→result LRU cache. Zero means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// ObserveBatch, when set, is called once per completed batch with the
	// operation ("classify" or "insert"), the batch size and the batch's
	// wall time — the hook internal/obs uses to feed batch-size and
	// batch-latency histograms. It runs on the request path and must be
	// cheap and non-blocking.
	ObserveBatch func(op string, size int, d time.Duration)
}

// Service is a concurrency-safe batch classification pipeline.
type Service struct {
	st           *store.Store
	workers      int       // chunks per batch; <= 0 means GOMAXPROCS
	cache        *lruCache // nil when disabled
	observeBatch func(op string, size int, d time.Duration)

	// inflight counts batches currently executing — the live depth
	// admission control (internal/auth) sheds on.
	inflight atomic.Int64

	// Atomic counters.
	lookups    atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	cacheHits  atomic.Int64
	inserts    atomic.Int64
	created    atomic.Int64
	collisions atomic.Int64
	deduped    atomic.Int64
	batches    atomic.Int64
}

// New returns a service over st.
func New(st *store.Store, o Options) *Service {
	var cache *lruCache
	switch {
	case o.CacheSize == 0:
		cache = newLRUCache(DefaultCacheSize)
	case o.CacheSize > 0:
		cache = newLRUCache(o.CacheSize)
	}
	return &Service{st: st, workers: o.Workers, cache: cache, observeBatch: o.ObserveBatch}
}

// Store returns the backing class store.
func (s *Service) Store() *store.Store { return s.st }

// InflightBatches returns the number of batches executing right now —
// the queue-pressure signal load shedding compares against its limit.
func (s *Service) InflightBatches() int64 { return s.inflight.Load() }

// Result is the outcome of classifying one function.
type Result struct {
	// Key is the MSV class key (valid even on a miss).
	Key uint64
	// Index is the representative's position in the key's collision chain;
	// -1 on a miss.
	Index int
	// Hit reports whether the function's class is stored.
	Hit bool
	// Rep is the certified class representative (nil on a miss).
	Rep *tt.TT
	// Witness is a transform τ with τ(Rep) = f (valid only on a hit).
	Witness npn.Transform
}

// InsertResult is the outcome of inserting one function.
type InsertResult struct {
	Key   uint64
	Index int
	// New reports whether the function founded a new class.
	New bool
}

// ClassifyCtx looks up every function's class. Results keep input order.
// Misses are reported per function (Hit=false); they do not modify the
// store. LRU hits are answered on the calling goroutine before anything
// fans out, so a batch the LRU answers whole builds no dedup map and
// allocates nothing per function.
//
// ctx carries tracing: the batch runs under a service.batch span, the
// wait between the fan-out and its first chunk starting is a
// service.queue span, and every LRU hit and every unique miss gets a
// service.certify span recording its LRU outcome. With tracing off every
// span is nil and the cost is a context lookup.
func (s *Service) ClassifyCtx(ctx context.Context, fs []*tt.TT) []Result {
	return runBatch(ctx, s, "classify", &s.lookups, fs, s.probe, s.classifyOne, func(r Result) Result {
		// A later copy is one more hit or miss in the counters.
		if r.Hit {
			s.hits.Add(1)
		} else {
			s.misses.Add(1)
		}
		return r
	})
}

// InsertCtx adds every function's class if absent. Results keep input
// order; ctx carries tracing as in ClassifyCtx.
func (s *Service) InsertCtx(ctx context.Context, fs []*tt.TT) []InsertResult {
	return runBatch(ctx, s, "insert", &s.inserts, fs, nil, s.insertOne, func(r InsertResult) InsertResult {
		// The first copy founded (or found) the class; later copies of the
		// same function are by definition not new.
		r.New = false
		return r
	})
}

// runBatch is the batch skeleton classify and insert share. probe, when
// set, may answer a function on the calling goroutine. runBatch runs one
// on every unique function left, across par.Chunks, and answers each
// later copy of a function with copyOf(its first copy's result). It keeps
// the inflight gauge, the service.batch and service.queue spans and the
// batch counters; total is the operation's own counter of functions.
func runBatch[R any](ctx context.Context, s *Service, op string, total *atomic.Int64, fs []*tt.TT,
	probe func(context.Context, *tt.TT, *R) bool, one func(context.Context, *tt.TT) R, copyOf func(R) R) []R {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()
	ctx, batch := obs.StartSpan(ctx, "service.batch")
	batch.SetAttr("op", op)
	batch.SetInt("size", int64(len(fs)))
	out := make([]R, len(fs))
	var left []int
	for i, f := range fs {
		if probe == nil || !probe(ctx, f, &out[i]) {
			if left == nil {
				left = make([]int, 0, len(fs)-i)
			}
			left = append(left, i)
		}
	}
	uniq, firstOf := dedupBatch(fs, left)
	batch.SetInt("unique", int64(len(uniq)))
	if len(uniq) > 0 {
		// The queue span is closed by whichever chunk starts first: its
		// duration is the time the batch waited before its store work ran.
		_, queue := obs.StartSpan(ctx, "service.queue")
		var queueOnce sync.Once
		par.Chunks(len(uniq), s.workers, func(lo, hi int) {
			if queue != nil {
				queueOnce.Do(queue.End)
			}
			for _, j := range uniq[lo:hi] {
				out[j] = one(ctx, fs[j])
			}
		})
	}
	for p, j := range firstOf {
		if i := left[p]; j != i {
			out[i] = copyOf(out[j])
		}
	}
	s.deduped.Add(int64(len(left) - len(uniq)))
	total.Add(int64(len(fs)))
	s.batches.Add(1)
	if s.observeBatch != nil {
		s.observeBatch(op, len(fs), time.Since(start))
	}
	batch.End()
	return out
}

// dedupBatch groups duplicates among the functions fs[i], i in idx. uniq
// lists the first occurrences, in input order; firstOf[p] is the index of
// fs[idx[p]]'s first occurrence, or firstOf is nil (and uniq is idx) when
// there are no duplicates.
func dedupBatch(fs []*tt.TT, idx []int) (uniq []int, firstOf []int) {
	if len(idx) < 2 {
		return idx, nil
	}
	seen := make(map[string]int, len(idx))
	firstOf = make([]int, len(idx))
	uniq = make([]int, 0, len(idx))
	for p, i := range idx {
		k := cacheKey(fs[i])
		if j, ok := seen[k]; ok {
			firstOf[p] = j
			continue
		}
		seen[k] = i
		firstOf[p] = i
		uniq = append(uniq, i)
	}
	if len(uniq) == len(idx) {
		return idx, nil
	}
	return uniq, firstOf
}

// probe answers f into *r if the LRU holds it, under a service.certify
// span. The key lives in a stack buffer, so a hit allocates nothing.
func (s *Service) probe(ctx context.Context, f *tt.TT, r *Result) bool {
	if s.cache == nil {
		return false
	}
	var kb [32]byte
	hit, ok := s.cache.getBytes(appendCacheKey(kb[:0], f))
	if !ok {
		return false
	}
	*r = hit
	s.cacheHits.Add(1)
	s.hits.Add(1)
	_, sp := obs.StartSpan(ctx, "service.certify")
	sp.SetAttr("cache", "hit")
	sp.End()
	return true
}

// classifyOne serves one LRU miss from the store under a service.certify
// span, and caches a hit.
func (s *Service) classifyOne(ctx context.Context, f *tt.TT) Result {
	ctx, sp := obs.StartSpan(ctx, "service.certify")
	sp.SetAttr("cache", "miss")
	rep, key, index, w, ok := s.st.LookupCtx(ctx, f)
	sp.SetBool("hit", ok)
	sp.End()
	r := Result{Key: key, Index: index, Hit: ok, Rep: rep, Witness: w}
	if ok {
		s.hits.Add(1)
		// Representatives are never removed, so a cached hit stays valid
		// forever; misses are not cached because a later insert would
		// invalidate them.
		if s.cache != nil {
			s.cache.put(cacheKey(f), r)
		}
	} else {
		s.misses.Add(1)
	}
	return r
}

// insertOne serves one insert under a service.certify span recording
// whether it founded a new class.
func (s *Service) insertOne(ctx context.Context, f *tt.TT) InsertResult {
	ctx, sp := obs.StartSpan(ctx, "service.certify")
	key, index, isNew := s.st.AddCtx(ctx, f)
	sp.SetBool("new", isNew)
	sp.End()
	if isNew {
		s.created.Add(1)
		if index > 0 {
			s.collisions.Add(1)
		}
	}
	return InsertResult{Key: key, Index: index, New: isNew}
}

// cacheKey packs the function's truth-table words into a string key. The
// arity is fixed per service, so the bits identify the function.
func cacheKey(f *tt.TT) string {
	return string(appendCacheKey(nil, f))
}

// appendCacheKey appends the packed truth-table words of f to b — the
// allocation-free form of cacheKey for the hot path, which passes a stack
// buffer and looks the bytes up without building a string.
//
//npn:noalloc
func appendCacheKey(b []byte, f *tt.TT) []byte {
	for _, w := range f.Words() {
		b = append(b,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return b
}

// Stats is a point-in-time snapshot of the service counters. The store's
// shape (classes, chains) is the store's to report.
type Stats struct {
	Lookups    int64
	Hits       int64
	Misses     int64
	CacheHits  int64
	Inserts    int64
	Created    int64
	Collisions int64 // new classes chained behind an occupied key

	// Deduped counts batch members answered by another copy of the same
	// function in their own batch — store work the key dedup saved.
	Deduped int64

	// JournalErrors counts inserts the store refused because its
	// write-ahead journal failed; zero without a journal.
	JournalErrors int64

	// Representative-profile cache counters from the store: hits reuse a
	// memoized matcher profile, misses build one, entries count memoized
	// profiles.
	ProfileHits    int64
	ProfileMisses  int64
	ProfileEntries int64

	Batches int64

	// InflightBatches is the number of batches executing at snapshot
	// time — the live pool depth load shedding watches.
	InflightBatches int64

	CacheEntries int
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Lookups:         s.lookups.Load(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		CacheHits:       s.cacheHits.Load(),
		Inserts:         s.inserts.Load(),
		Created:         s.created.Load(),
		Collisions:      s.collisions.Load(),
		Deduped:         s.deduped.Load(),
		JournalErrors:   s.st.JournalErrors(),
		Batches:         s.batches.Load(),
		InflightBatches: s.inflight.Load(),
	}
	st.ProfileHits, st.ProfileMisses, st.ProfileEntries = s.st.ProfileCacheStats()
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
	}
	return st
}
