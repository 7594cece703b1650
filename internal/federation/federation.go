// Package federation fronts one classification service per arity: a
// registry of service.Service instances for n = MinVars..MaxVars, each
// backed by its own sharded store and constructed lazily on the first
// function of that arity. A mixed-arity batch is routed per function to
// the right arity's service — the arity groups are the chunks of one
// par.Chunks call, and each service splits its group the same way — and
// results are scattered back into input order, so one server handles
// every federated arity behind a single API.
//
// The federated HTTP surface in http.go reads each JSON function's arity
// from its hex truth-table length (api.HexArity), which is why MinVars
// must be at least 2: below that, distinct arities share the one-digit
// encoding, which the wire reads as two variables.
//
// With Options.Data set the federation is durable: each arity keeps a WAL
// directory (snapshot + log segments, internal/wal) under
// <Data>/n<arity>/, its store is rebuilt from that directory on first use
// (store.Recover) and journals every certified new-class insert from then
// on. CompactAll folds every arity's log into its snapshot on demand (the
// POST /v2/compact admin endpoint); StartAutoCompact folds, periodically,
// the arities whose log rotation has sealed a segment. /metrics then
// carries each arity's log shape: segments, bytes, fsync lag.
package federation

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/internal/wal"
)

// MinFederatedArity is the smallest MinVars New accepts; hex truth-table
// lengths are unique per arity only from 2 variables up.
const MinFederatedArity = 2

// Options configures every per-arity service in a Registry.
type Options struct {
	// Store configures each arity's backing store (shards, MSV config).
	Store store.Options
	// Service configures each arity's pipeline (workers, LRU capacity).
	Service service.Options
	// Data, when non-empty, makes the federation durable: each arity's
	// store recovers from and journals to the WAL directory
	// <Data>/n<arity>/. Empty keeps stores memory-only.
	Data string
	// WAL configures each arity's log writer — segment rotation threshold
	// and group-fsync interval. Meta is overwritten per store with its MSV
	// configuration fingerprint. Ignored when Data is empty.
	WAL wal.Options
}

// ErrNotDurable is returned by durability operations on a registry built
// without a data directory.
var ErrNotDurable = errors.New("federation: durability disabled (no data directory)")

// Registry is a federated classification front: one lazily-constructed
// service per arity in [MinVars, MaxVars]. All methods are safe for
// concurrent use.
type Registry struct {
	lo, hi int
	opts   Options

	mu      sync.RWMutex
	svcs    []*service.Service // index n-lo; nil until first use
	writers []*wal.Writer      // index n-lo; non-nil iff durable and constructed

	// obs holds the push instruments RegisterMetrics installed; services
	// and writers constructed afterwards observe through them.
	obs           *obsHooks
	obsRegistered bool

	compactMu sync.Mutex // serializes compaction passes
}

// New returns a registry federating arities lo..hi inclusive.
func New(lo, hi int, o Options) (*Registry, error) {
	if lo < MinFederatedArity || hi > tt.MaxVars || lo > hi {
		return nil, fmt.Errorf("federation: arity range %d..%d outside %d..%d",
			lo, hi, MinFederatedArity, tt.MaxVars)
	}
	return &Registry{
		lo: lo, hi: hi, opts: o,
		svcs:    make([]*service.Service, hi-lo+1),
		writers: make([]*wal.Writer, hi-lo+1),
	}, nil
}

// Durable reports whether the registry persists classes to WAL
// directories.
func (r *Registry) Durable() bool { return r.opts.Data != "" }

// ArityDir returns arity n's WAL directory under the data directory.
func (r *Registry) ArityDir(n int) string {
	return filepath.Join(r.opts.Data, fmt.Sprintf("n%d", n))
}

// MinVars returns the smallest federated arity.
func (r *Registry) MinVars() int { return r.lo }

// MaxVars returns the largest federated arity.
func (r *Registry) MaxVars() int { return r.hi }

// Service returns arity n's service, constructing its store on first use.
func (r *Registry) Service(n int) (*service.Service, error) {
	if n < r.lo || n > r.hi {
		return nil, fmt.Errorf("federation: arity %d outside federated range %d..%d", n, r.lo, r.hi)
	}
	r.mu.RLock()
	svc := r.svcs[n-r.lo]
	r.mu.RUnlock()
	if svc != nil {
		return svc, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.svcs[n-r.lo] == nil {
		svcOpts, walOpts := r.opts.Service, r.opts.WAL
		if ob, of := r.hooksFor(n); ob != nil {
			svcOpts.ObserveBatch, walOpts.ObserveFsync = ob, of
		}
		var st *store.Store
		if r.Durable() {
			recovered, w, err := store.Recover(r.ArityDir(n), n, r.opts.Store, walOpts)
			if err != nil {
				return nil, fmt.Errorf("federation: recover arity %d: %w", n, err)
			}
			st = recovered
			r.writers[n-r.lo] = w
		} else {
			st = store.New(n, r.opts.Store)
		}
		r.svcs[n-r.lo] = service.New(st, svcOpts)
	}
	return r.svcs[n-r.lo], nil
}

// writer returns arity n's log writer, nil when not durable or not yet
// constructed.
func (r *Registry) writer(n int) *wal.Writer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n < r.lo || n > r.hi {
		return nil
	}
	return r.writers[n-r.lo]
}

// Close flushes and closes every constructed arity's log writer. A
// durable registry must not serve inserts after Close; Close on a
// memory-only registry is a no-op. The first error is returned, but every
// writer is closed regardless.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, w := range r.writers {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CompactResult is one arity's compaction outcome.
type CompactResult struct {
	Arity int `json:"arity"`
	wal.CompactStats
}

// CompactAll seals every active arity's log segment, folds the sealed
// segments (plus the previous snapshot) into a fresh snapshot and deletes
// the folded segments — the federation-wide persistence compaction.
// Passes are serialized; concurrent inserts proceed against the fresh
// active segments. The slice holds one entry per arity compacted before
// any error.
func (r *Registry) CompactAll() ([]CompactResult, error) { return r.compact(true) }

// compact is one compaction pass. Without force (the StartAutoCompact
// loop) it leaves an arity alone until log rotation has sealed one of its
// segments, so a trickle of inserts neither seals a tiny segment nor
// rewrites the whole snapshot on every pass.
func (r *Registry) compact(force bool) ([]CompactResult, error) {
	if !r.Durable() {
		return nil, ErrNotDurable
	}
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	out := []CompactResult{}
	for _, n := range r.Active() {
		w := r.writer(n)
		if w == nil || !force && w.Stats().SealedSegments == 0 {
			continue
		}
		c := &wal.Compactor{Dir: r.ArityDir(n), N: n, W: w}
		st, err := c.Compact()
		if err != nil {
			return out, fmt.Errorf("federation: compact arity %d: %w", n, err)
		}
		out = append(out, CompactResult{Arity: n, CompactStats: st})
	}
	return out, nil
}

// StartAutoCompact runs a compaction pass every interval on a background
// goroutine until the returned stop function is called (the goroutine's
// only exit). A pass compacts, as CompactAll does, only the arities whose
// log rotation has sealed a segment since their last fold. Pass errors
// are delivered to onErr (may be nil) and do not stop the loop.
func (r *Registry) StartAutoCompact(every time.Duration, onErr func(error)) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if _, err := r.compact(false); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// InflightBatches sums the batches currently executing across every
// active arity's service — the live depth the load shedder
// (internal/auth) compares against its admission limit. A handful of
// atomic loads, cheap enough for every request.
func (r *Registry) InflightBatches() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, svc := range r.svcs {
		if svc != nil {
			total += svc.InflightBatches()
		}
	}
	return total
}

// Active returns the arities whose services have been constructed, in
// increasing order. The slice is always non-nil so it encodes as a JSON
// array even when empty.
func (r *Registry) Active() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, len(r.svcs))
	for i, svc := range r.svcs {
		if svc != nil {
			out = append(out, r.lo+i)
		}
	}
	return out
}

// ClassifyCtx looks up every function's class in its arity's service.
// The batch may mix arities freely; results keep input order. It fails as
// a whole if any function's arity is outside the federated range. ctx
// carries tracing: the arity partition and group fan-out run under a
// federation.route span, and each arity group's pipeline spans nest
// beneath it.
func (r *Registry) ClassifyCtx(ctx context.Context, fs []*tt.TT) ([]service.Result, error) {
	return route(ctx, r, fs, (*service.Service).ClassifyCtx)
}

// InsertCtx adds every function's class if absent, routed by arity.
// Results keep input order; ctx carries tracing as in ClassifyCtx.
func (r *Registry) InsertCtx(ctx context.Context, fs []*tt.TT) ([]service.InsertResult, error) {
	return route(ctx, r, fs, (*service.Service).InsertCtx)
}

// route is the routing skeleton classify and insert share. It partitions
// a mixed-arity batch by arity, constructing each needed service, and runs
// op once per arity group under one federation.route span, each group a
// par.Chunks chunk: the last on the caller's goroutine, any other on an
// idle shared helper or else on the caller too. Results are scattered
// back into input order.
func route[R any](ctx context.Context, r *Registry, fs []*tt.TT,
	op func(*service.Service, context.Context, []*tt.TT) []R) ([]R, error) {
	ctx, sp := obs.StartSpan(ctx, "federation.route")
	defer sp.End()
	type group struct {
		svc *service.Service
		fs  []*tt.TT
		idx []int // positions in fs
	}
	// Indexed by arity, so the groups come out in increasing arity order.
	groups := make([]group, r.hi-r.lo+1)
	for i, f := range fs {
		k := f.NumVars() - r.lo
		if k < 0 || k >= len(groups) || groups[k].svc == nil {
			svc, err := r.Service(f.NumVars())
			if err != nil {
				return nil, fmt.Errorf("functions[%d]: %w", i, err)
			}
			groups[k].svc = svc
		}
		groups[k].fs = append(groups[k].fs, f)
		groups[k].idx = append(groups[k].idx, i)
	}
	live := groups[:0]
	for _, g := range groups {
		if g.svc != nil {
			live = append(live, g)
		}
	}
	sp.SetInt("groups", int64(len(live)))
	out := make([]R, len(fs))
	par.Chunks(len(live), len(live), func(lo, hi int) {
		for _, g := range live[lo:hi] {
			for j, res := range op(g.svc, ctx, g.fs) {
				out[g.idx[j]] = res
			}
		}
	})
	return out, nil
}
