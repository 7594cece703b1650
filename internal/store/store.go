// Package store implements a sharded, concurrency-safe NPN class store.
// Functions are keyed by the 64-bit hash of their canonical MSV
// (internal/core); the key selects one of N shards, each guarded by its
// own RWMutex, so lookups and inserts of unrelated classes never contend.
//
// Signatures are a necessary condition for NPN equivalence only, so two
// inequivalent functions may share a key. Every key therefore holds a
// collision chain of representatives: AddCtx certifies f against each chain
// member with the exact matcher before founding a new class, and LookupCtx
// returns the member the matcher certifies together with a witness
// transform. No class is ever silently merged and no false equivalence is
// ever reported — the matcher has the last word on every hit.
//
// The signature engines (core.Classifier, match.Matcher) reuse scratch
// buffers and must not be shared between goroutines; the store keeps a
// sync.Pool of engine sets so concurrent callers each borrow a private
// set for the duration of one operation. All heavy work — MSV hashing and
// exact matching — runs outside the shard locks: locks are held only to
// read or append a chain slice or a hint. Representatives are cloned on
// insert and never mutated, so a chain header copied under RLock stays
// valid after the lock is released.
//
// Certification is profile-cached: each shard keeps a map of memoized
// match.RepProfile values parallel to its chains, guarded by the same
// RWMutex. The first query against a representative builds its profile
// (a miss); every later query reuses it (a hit), so the hot serve path
// stops rebuilding the representative's signature profile per query and
// builds only the query's own profile — once per LookupCtx, shared across
// the whole collision chain and both output phases. Profiles are keyed by
// (class key, chain index) and representatives are immutable and never
// removed, so a memoized profile can never go stale; chain growth only
// appends fresh slots.
//
// In front of the full-MSV key sits a hint index, the paper's staged
// refinement (§IV-B) applied to the store: each shard maps the cheap
// OCV1+OIV hash of every profiled class to that class's identity and
// memoized profile. LookupCtx and AddCtx hash the cheap stage first; when
// it holds a live hint, one node-budgeted match against the hinted profile
// certifies the hit and the full MSV is never computed. Anything
// else — no hint, a refutation, an exhausted budget, a cheap key shared by
// two profiled classes — falls through to the full-key path, which then
// publishes the hint. A hint hit returns the very (key, index) the full
// path would: NPN-equivalent functions have equal full MSVs and the
// members of one chain are pairwise inequivalent. Class identities, WAL
// records and the configuration fingerprint are therefore independent of
// the hints, which live only in memory.
//
// Durability is layered on through two hooks. A Journal (internal/wal's
// Writer in production) receives every certified new-class insert under
// the shard write lock, before the class is published — write-ahead
// ordering, so a recovered store never holds a class that was not logged.
// Whether an acknowledged insert survives a crash is up to the journal's
// Commit: a sync-every-append writer fsyncs there, a group-commit writer
// returns before its next flush. Recover rebuilds a store from a WAL
// directory: the base snapshot is re-added in parallel, then the log is
// replayed — trusting each record's logged class key when the segment was
// written under the same MSV configuration (skipping signature hashing
// and matcher certification entirely), re-hashing otherwise — and finally
// a fresh Writer is attached as the journal.
package store

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/npn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tt"
)

// DefaultShards is the shard count used when Options.Shards is zero.
const DefaultShards = 16

// hintConfig selects the hint index's cheap key: the paper's two cheapest
// vectors, which alone separate all but a handful of the circuit corpus's
// classes at n = 6..8 for a tenth of the full MSV's cost or less.
var hintConfig = core.Config{OCV1: true, OIV: true}

// hintBudget caps the search nodes of one hint certification. A disguise
// of a circuit-corpus class is decided in n+1 nodes at the median and at
// most 36 at p99.9, while the crafted family x0⊕x1⊕h(x2..) needs about
// 900 at the median and up to ~55k. An attempt that runs out makes its
// cheap key ambiguous, so such a family pays the budget once per cheap
// key and then goes straight to the full MSV.
const hintBudget = 256

// Options configures a Store.
type Options struct {
	// Shards is the number of lock shards, rounded up to a power of two.
	// Zero means DefaultShards.
	Shards int
	// Config selects the signature vectors of the MSV key. The zero value
	// means the paper's full configuration (ConfigAll + FastOSDV). Weaker
	// configurations collide more often and grow longer chains; correctness
	// is unaffected because membership is always matcher-certified. Tests
	// use a weak key to force collision chains at small arities, where the
	// full MSV is exact.
	Config core.Config
}

// Journal receives every certified new-class insert before it is
// published. LogInsert is called under the owning shard's write lock, so
// implementations must buffer cheaply and must not call back into the
// store; an error refuses the insert (the class is not published).
// Commit is called once per logged insert after publication, outside any
// lock — it is where a sync-every-append journal pays its fsync, so disk
// latency never stalls the shard. Both receive the request context, so a
// journal can attach tracing spans to the append and the fsync wait.
// internal/wal's Writer implements it.
type Journal interface {
	LogInsert(ctx context.Context, key uint64, f *tt.TT) error
	Commit(ctx context.Context) error
}

// engines is one borrowed set of stateful signature engines.
type engines struct {
	cls   *core.Classifier // the class key (Options.Config)
	cheap *core.Classifier // the hint key (hintConfig)
	m     *match.Matcher
}

// chain is one key's collision chain: the certified representatives and
// their memoized matcher profiles, index-parallel. The profiles slice may
// lag reps (new representatives start unprofiled) and holds nil in
// not-yet-built slots; both slices are read and grown only under the
// owning shard's mutex, and their elements are immutable once published.
type chain struct {
	reps  []*tt.TT
	profs []*match.RepProfile
}

// hint is one entry of a shard's hint index: the identity, representative
// and memoized profile of the profiled class seen under a cheap key. The
// zero hint (prof nil) is a tombstone: the cheap key is ambiguous and is
// never probed again.
type hint struct {
	key   uint64
	index int
	rep   *tt.TT
	prof  *match.RepProfile
}

// hintOutcome is what a hint probe found; the store.lookup and store.add
// spans record it as their "hint" attribute.
type hintOutcome uint8

const (
	hintNone      hintOutcome = iota // no profiled class under the cheap key yet
	hintAmbiguous                    // a tombstone: the full path decides
	hintRefuted                      // the hinted class is not f's
	hintExhausted                    // the match ran out of budget; now ambiguous
	hintHit                          // certified: the hinted class is f's
)

var hintOutcomeNames = [...]string{"none", "ambiguous", "refuted", "exhausted", "hit"}

func (o hintOutcome) String() string { return hintOutcomeNames[o] }

// shard is one lock domain, guarded by one RWMutex: the chain-and-profile
// map for the class keys that hash into it, and the hint index for the
// cheap keys that do.
type shard struct {
	mu     sync.RWMutex
	chains map[uint64]*chain
	hints  map[uint64]hint
}

// Store is a sharded NPN class store for functions of a fixed arity. All
// methods are safe for concurrent use.
type Store struct {
	n      int
	fp     uint64 // configFingerprint of the key configuration, the segment meta word
	mask   uint64
	shards []shard
	pool   sync.Pool

	// journal, when set, is the write-ahead hook for new-class inserts.
	// Written once by SetJournal before concurrent use, read by AddCtx.
	journal     Journal
	journalErrs atomic.Int64

	// Profile-cache counters: a hit reuses a memoized representative
	// profile (a hint attempt included), a miss builds one, entries counts
	// memoized profiles.
	profHits    atomic.Int64
	profMisses  atomic.Int64
	profEntries atomic.Int64
}

// New returns an empty store for n-variable functions.
func New(n int, o Options) *Store {
	cfg := o.Config
	if cfg == (core.Config{}) {
		cfg = core.ConfigAll()
		cfg.FastOSDV = true
	}
	shards := o.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	size := 1
	for size < shards {
		size <<= 1
	}
	s := &Store{n: n, fp: configFingerprint(cfg), mask: uint64(size - 1),
		shards: make([]shard, size)}
	for i := range s.shards {
		s.shards[i].chains = make(map[uint64]*chain)
		s.shards[i].hints = make(map[uint64]hint)
	}
	s.pool.New = func() any {
		return &engines{cls: core.New(n, cfg), cheap: core.New(n, hintConfig), m: match.NewMatcher(n)}
	}
	return s
}

// Fingerprint returns the 64-bit hash of the store's MSV configuration —
// the meta word stamped on WAL segments, which replay and replication
// compare to decide whether a logged class key can be trusted.
func (s *Store) Fingerprint() uint64 { return s.fp }

// SetJournal installs the write-ahead hook: every subsequent certified
// new-class insert is logged through j before being published. It must be
// called before the store is shared between goroutines (Recover calls it
// after replay, before returning the store).
func (s *Store) SetJournal(j Journal) { s.journal = j }

// JournalErrors returns the number of inserts refused because the journal
// failed to log them. Always zero without a journal.
func (s *Store) JournalErrors() int64 { return s.journalErrs.Load() }

// borrow gets a private engine set; release returns it to the pool.
func (s *Store) borrow() *engines   { return s.pool.Get().(*engines) }
func (s *Store) release(e *engines) { s.pool.Put(e) }

// shardFor maps a class key to its shard.
func (s *Store) shardFor(key uint64) *shard { return &s.shards[key&s.mask] }

// ProfileCacheStats returns the representative-profile cache counters:
// hits (matches against a memoized profile, hint attempts included),
// misses (profiles built on demand) and entries (profiles currently
// memoized).
func (s *Store) ProfileCacheStats() (hits, misses, entries int64) {
	return s.profHits.Load(), s.profMisses.Load(), s.profEntries.Load()
}

// snapshot copies the chain header for key under one read lock. The
// returned slices are immutable views: appends under the write lock go
// through growth copies, so published elements never move or change.
//
//npn:noalloc
func (sh *shard) snapshot(key uint64) (reps []*tt.TT, profs []*match.RepProfile) {
	sh.mu.RLock()
	if c := sh.chains[key]; c != nil {
		reps, profs = c.reps, c.profs
	}
	sh.mu.RUnlock()
	return reps, profs
}

// publishProfile memoizes the profile of chain member i under key, built
// by the caller outside the lock. The profiles slice is replaced
// copy-on-write so headers handed out by snapshot stay immutable after
// the read lock is dropped; slots are nil-padded so indices always stay
// aligned with the chain even when it grew since the caller's snapshot.
// If two goroutines race on the same unbuilt slot, the first publication
// wins and the duplicate build is dropped.
func (s *Store) publishProfile(sh *shard, key uint64, i int, rp *match.RepProfile) *match.RepProfile {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.chains[key]
	if i < len(c.profs) && c.profs[i] != nil {
		return c.profs[i]
	}
	size := len(c.profs)
	if i+1 > size {
		size = i + 1
	}
	ps := make([]*match.RepProfile, size)
	copy(ps, c.profs)
	ps[i] = rp
	c.profs = ps
	s.profEntries.Add(1)
	return rp
}

// certifyChain scans the snapshotted chain from member from onward for a
// member NPN-equivalent to f, returning its index, its memoized profile
// and a witness τ with τ(reps[i]) = f. It is the shared certification core
// of AddCtx and LookupCtx: it matches f's query profile q against each
// member's memoized profile, building and publishing missing ones. q may
// be nil; it is then built on the first member whose satisfy count is
// compatible, so a count-incompatible miss never pays for it. A traced context records
// the chain walk as a store.certify span with the chain length and
// profile-cache outcome.
//
//npn:noalloc
func (s *Store) certifyChain(ctx context.Context, sh *shard, key uint64, reps []*tt.TT, profs []*match.RepProfile, from int, f *tt.TT, q *match.Profile, e *engines) (int, *match.RepProfile, npn.Transform, bool) {
	var pHits, pMisses int64
	if _, sp := obs.StartSpan(ctx, "store.certify"); sp != nil {
		defer func() {
			sp.SetInt("chain", int64(len(reps)))
			sp.SetInt("profile_hits", pHits)
			sp.SetInt("profile_misses", pMisses)
			sp.End()
		}()
	}
	ones, size := f.CountOnes(), f.NumBits()
	for i := from; i < len(reps); i++ {
		rep := reps[i]
		if ro := rep.CountOnes(); ro != ones && size-ro != ones {
			continue
		}
		if q == nil {
			// Scratch-backed: valid until e.m's next QueryProfile call,
			// which cannot happen while this engine set is borrowed.
			q = e.m.QueryProfile(f)
		}
		var rp *match.RepProfile
		if i < len(profs) {
			rp = profs[i]
		}
		if rp != nil {
			s.profHits.Add(1)
			pHits++
		} else {
			s.profMisses.Add(1)
			pMisses++
			rp = s.publishProfile(sh, key, i, e.m.RepProfile(rep))
		}
		if tr, eq := e.m.MatchProfiled(rp, q); eq {
			return i, rp, tr, true
		}
	}
	return -1, nil, npn.Transform{}, false
}

// probeHint tries the hint index for f, whose cheap key is cheap. On
// hintHit, h names f's class and tr is a witness with τ(h.rep) = f. Any
// other outcome leaves the decision to the full-key path; q is f's query
// profile when the probe built one, for that path to reuse. An attempt
// that exhausts hintBudget turns the cheap key into a tombstone; one
// refuted within budget leaves the hint alone, so a random function that
// happens to share a stored class's cheap key cannot turn off that
// class's fast path.
//
//npn:noalloc
func (s *Store) probeHint(cheap uint64, f *tt.TT, e *engines) (h hint, tr npn.Transform, q *match.Profile, out hintOutcome) {
	sh := s.shardFor(cheap)
	sh.mu.RLock()
	h, ok := sh.hints[cheap]
	sh.mu.RUnlock()
	switch {
	case !ok:
		return h, tr, nil, hintNone
	case h.prof == nil:
		return h, tr, nil, hintAmbiguous
	}
	s.profHits.Add(1)
	q = e.m.QueryProfile(f)
	tr, v := e.m.MatchBudget(h.prof, q, hintBudget)
	switch v {
	case match.Matched:
		return h, tr, q, hintHit
	case match.Undecided:
		sh.mu.Lock()
		sh.hints[cheap] = hint{}
		sh.mu.Unlock()
		return h, tr, q, hintExhausted
	}
	return h, tr, q, hintRefuted
}

// noteHit records a certified full-path hit on class h under cheap key
// cheap, given what the probe before it found. The first profiled class
// seen under a cheap key becomes its hint; a second one makes the key
// ambiguous for good. Outcomes that already settled the key (a tombstone)
// take no lock.
func (s *Store) noteHit(cheap uint64, out hintOutcome, h hint) {
	if out != hintNone && out != hintRefuted {
		return
	}
	sh := s.shardFor(cheap)
	sh.mu.Lock()
	old, ok := sh.hints[cheap]
	switch {
	case !ok:
		sh.hints[cheap] = h
	case old.prof != nil && (old.key != h.key || old.index != h.index):
		sh.hints[cheap] = hint{}
	}
	sh.mu.Unlock()
}

// AddCtx inserts f's class if absent, returning the class key, the
// position of its representative in the key's collision chain, and
// whether a new class was created (f becomes a representative). f is
// certified against every chain member with the exact matcher, so an MSV
// collision founds a new chained class rather than silently merging.
//
// With a journal installed, a new class is logged before it is published
// and committed before AddCtx returns; it is durable on return only when
// the journal's Commit syncs (internal/wal's group mode returns before its
// next flush, so a crash within one interval can lose it). A logging
// failure refuses the insert — AddCtx returns index -1 with isNew false,
// the class is not published, and the failure is counted in
// JournalErrors. A commit failure is also reported as a refusal (index
// -1, counted), but the class is already published: it will serve lookups
// until the next restart, after which only what the log durably holds
// survives — callers seeing a refusal must treat the insert as not
// persisted.
//
// ctx carries tracing: the insert runs under a store.add span, the chain
// certification under store.certify, and the journal receives ctx for its
// append and fsync phases (internal/wal records them as wal.* spans).
func (s *Store) AddCtx(ctx context.Context, f *tt.TT) (key uint64, index int, isNew bool) {
	if f.NumVars() != s.n {
		panic("store: function arity does not match store")
	}
	ctx, sp := obs.StartSpan(ctx, "store.add")
	defer sp.End()
	e := s.borrow()
	defer s.release(e)

	cheap := e.cheap.Hash(f)
	h, _, q, out := s.probeHint(cheap, f, e)
	sp.SetAttr("hint", out.String())
	if out == hintHit {
		return h.key, h.index, false
	}
	key = e.cls.Hash(f)
	sh := s.shardFor(key)

	// Certify against the chain as published so far without holding any
	// lock during the (expensive) exact matching. Members that raced in
	// before the write lock was taken are certified the same way, outside
	// the lock, and the append retried; chain elements are immutable, so
	// every earlier scan stays valid.
	reps, profs := sh.snapshot(key)
	from := 0
	for {
		if i, rp, _, eq := s.certifyChain(ctx, sh, key, reps, profs, from, f, q, e); eq {
			s.noteHit(cheap, out, hint{key: key, index: i, rep: reps[i], prof: rp})
			return key, i, false
		}
		from = len(reps)
		sh.mu.Lock()
		c := sh.chains[key]
		if c != nil && len(c.reps) > from {
			reps, profs = c.reps, c.profs
			sh.mu.Unlock()
			continue
		}
		j := s.journal
		if j != nil {
			if err := j.LogInsert(ctx, key, f); err != nil {
				sh.mu.Unlock()
				s.journalErrs.Add(1)
				return key, -1, false
			}
		}
		// The chain is created only with its first class, so a refused
		// insert leaves no empty chain behind.
		if c == nil {
			c = &chain{}
			sh.chains[key] = c
		}
		c.reps = append(c.reps, f.Clone())
		index = len(c.reps) - 1
		sh.mu.Unlock()
		if j != nil {
			if err := j.Commit(ctx); err != nil {
				s.journalErrs.Add(1)
				return key, -1, false
			}
		}
		return key, index, true
	}
}

// addRecovered appends f as a representative of key, trusting a replayed
// log record: no signature hashing, no matcher certification, no journal
// write. Every logged record was a distinct certified class in the store
// that wrote it, so the only duplication replay can encounter is the
// exact same table arriving twice (a snapshot overlapping stale segments
// after a crashed compaction) — filtered here by table equality. It
// returns whether f was published.
func (s *Store) addRecovered(key uint64, f *tt.TT) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.chains[key]
	if c == nil {
		c = &chain{}
		sh.chains[key] = c
	}
	for _, rep := range c.reps {
		if rep.Equal(f) {
			return false
		}
	}
	c.reps = append(c.reps, f.Clone())
	return true
}

// ApplyLogRecord publishes one replayed or replicated log record,
// choosing the trust level replay and followers share: when meta (the
// record's segment meta word) matches this store's configuration
// fingerprint the logged class key is trusted and the record is published
// directly — no signature hashing, no matcher certification — otherwise
// the table is re-hashed through the certified insert path. It reports
// whether a new representative was published (false when the exact table
// was already present, the idempotence that makes replicated re-delivery
// — a follower re-bootstrapping after primary compaction — safe). It is
// how classes enter a follower's store. Safe for concurrent use with
// LookupCtx, so a follower keeps serving while records stream in.
func (s *Store) ApplyLogRecord(meta uint64, key uint64, f *tt.TT) bool {
	if f.NumVars() != s.n {
		panic("store: function arity does not match store")
	}
	if meta == s.fp {
		return s.addRecovered(key, f)
	}
	_, _, isNew := s.AddCtx(context.Background(), f)
	return isNew
}

// ApplySnapshot publishes a compacted snapshot's tables through the
// trusted replay path: MSV keys are computed in parallel (hashing
// dominates and is embarrassingly parallel), then every table is
// published sequentially in snapshot order, so two tables sharing a key
// re-form their collision chain in the same order every time — chain
// indices are part of a class's served identity (key, index), and
// followers must reproduce the primary's. Publication dedups by exact
// table equality, so re-applying an overlapping snapshot (a follower
// re-bootstrapping after the primary compacted) publishes only what is
// missing. It returns the number of tables published.
func (s *Store) ApplySnapshot(fs []*tt.TT) int {
	keys := make([]uint64, len(fs))
	par.Chunks(len(fs), 0, func(lo, hi int) {
		e := s.borrow()
		defer s.release(e)
		for i := lo; i < hi; i++ {
			keys[i] = e.cls.Hash(fs[i])
		}
	})
	published := 0
	for i, f := range fs {
		if s.addRecovered(keys[i], f) {
			published++
		}
	}
	return published
}

// LookupCtx finds f's class. On a hit it returns the chain
// representative certified by the exact matcher, the class identity (key,
// chain index), and a witness transform τ with τ(rep) = f. A key hit whose
// chain holds no equivalent representative is a miss: f's class is not
// stored. The returned key is valid even on a miss (it identifies where
// f's class would live).
//
// ctx carries tracing: the shard probe runs under a store.lookup span (the
// hint outcome, and on the full-key path the shard index and chain length,
// as attributes) with the chain walk nested as store.certify.
//
//npn:noalloc
func (s *Store) LookupCtx(ctx context.Context, f *tt.TT) (rep *tt.TT, key uint64, index int, witness npn.Transform, ok bool) {
	if f.NumVars() != s.n {
		panic("store: function arity does not match store")
	}
	ctx, sp := obs.StartSpan(ctx, "store.lookup")
	defer sp.End()
	e := s.borrow()
	defer s.release(e)

	cheap := e.cheap.Hash(f)
	h, tr, q, out := s.probeHint(cheap, f, e)
	sp.SetAttr("hint", out.String())
	if out == hintHit {
		sp.SetBool("hit", true)
		return h.rep, h.key, h.index, tr, true
	}
	key = e.cls.Hash(f)
	sh := s.shardFor(key)
	reps, profs := sh.snapshot(key)
	if sp != nil {
		sp.SetInt("shard", int64(key&s.mask))
		sp.SetInt("chain", int64(len(reps)))
	}
	if i, rp, tr, eq := s.certifyChain(ctx, sh, key, reps, profs, 0, f, q, e); eq {
		s.noteHit(cheap, out, hint{key: key, index: i, rep: reps[i], prof: rp})
		sp.SetBool("hit", true)
		return reps[i], key, i, tr, true
	}
	sp.SetBool("hit", false)
	return nil, key, -1, npn.Transform{}, false
}

// forEachChain visits every collision chain, holding one shard's read
// lock at a time.
func (s *Store) forEachChain(fn func(shardIdx int, reps []*tt.TT)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, c := range sh.chains {
			fn(i, c.reps)
		}
		sh.mu.RUnlock()
	}
}

// Size returns the number of classes stored (chained collision
// representatives count individually).
func (s *Store) Size() int {
	total := 0
	s.forEachChain(func(_ int, chain []*tt.TT) { total += len(chain) })
	return total
}

// ShardSizes returns the per-shard class counts, for load-balance
// introspection.
func (s *Store) ShardSizes() []int {
	out := make([]int, len(s.shards))
	s.forEachChain(func(i int, chain []*tt.TT) { out[i] += len(chain) })
	return out
}

// ChainStats reports the collision-chain shape: how many distinct keys
// are stored and the longest chain behind any one key. Every chain holds
// at least one class, so Size minus chains counts the classes beyond the
// first of their key. A growing maximum means lookups on that key
// certify more candidates per probe — the signal /metrics exports as
// npn_store_chain_max_length.
func (s *Store) ChainStats() (chains, maxLen int) {
	s.forEachChain(func(_ int, chain []*tt.TT) {
		chains++
		if len(chain) > maxLen {
			maxLen = len(chain)
		}
	})
	return chains, maxLen
}
