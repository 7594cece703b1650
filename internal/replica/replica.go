// Package replica implements the follower side of WAL-shipping
// replication: a read-only npnserve that multiplies read throughput by
// tailing a durable primary's write-ahead log over HTTP and applying the
// records into local stores while it serves.
//
// The protocol is the primary's three WAL endpoints
// (internal/federation): the follower polls GET /v1/wal/segments for the
// per-arity manifest, bootstraps each arity from GET /v1/wal/snapshot/
// {arity} (the compacted base, applied through store.ApplySnapshot so
// collision-chain indices — part of a class's identity — come back
// exactly as the primary serves them), then tails GET /v1/wal/segment/
// {arity}/{seq}?offset= with resumable record-boundary offsets, decoding
// the byte stream with wal.Reader and publishing each record through
// store.ApplyLogRecord (key-trusting when the segment's meta word matches
// the follower's configuration fingerprint, certified re-hash otherwise).
// A poll that catches the primary mid-append simply stops at the last
// whole record (wal.ErrPartial) and resumes from that offset next time;
// a segment that vanished (primary compaction) re-bootstraps the arity
// from the fresh snapshot, which is safe because every apply path dedups
// by exact table equality.
//
// Proxy mode speaks the primary's /v2 API through pkg/client, so a
// follower requires a primary of the same API generation — the two are
// components of one deployment, shipped together like the WAL framing
// they already share. Upgrade primaries before followers.
//
// Followers are eventually consistent: the primary ships only its
// fsynced prefix (never a record it could still lose to a power cut, so
// a follower's state is always a prefix of the primary's durable
// history), and a class is visible locally at most one poll interval
// plus one primary fsync interval after it was acknowledged.
// Lag is tracked per arity in segments and bytes, snapshotted by Stats
// and exported on the follower's /metrics; when the primary stops
// answering, the follower keeps serving its replicated classes — reads
// never depend on the primary being alive.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/store"
	"repro/internal/ttio"
	"repro/internal/wal"

	apiclient "repro/pkg/client"
)

// DefaultInterval is the poll period used when Options.Interval is zero.
const DefaultInterval = 200 * time.Millisecond

// Mode selects how the follower answers what its replicated stores do
// not hold.
type Mode int

const (
	// ModeProxy forwards classify misses and every insert to the primary;
	// when the primary is unreachable the follower degrades gracefully to
	// local answers (misses stay misses, inserts fail with 502).
	ModeProxy Mode = iota
	// ModeLocal answers misses locally and refuses inserts (403): the
	// follower is a pure read replica and never contacts the primary
	// outside the tail loop.
	ModeLocal
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	if m == ModeLocal {
		return "local"
	}
	return "proxy"
}

// ParseMode parses the -follow-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "proxy":
		return ModeProxy, nil
	case "local":
		return ModeLocal, nil
	}
	return 0, fmt.Errorf("follow mode %q: want \"proxy\" or \"local\"", s)
}

// Options configures a Follower.
type Options struct {
	// Primary is the primary's base URL (e.g. "http://primary:8080").
	Primary string
	// Interval is the tail-poll period; zero means DefaultInterval.
	Interval time.Duration
	// Mode selects proxy or local handling of misses and inserts.
	Mode Mode
	// StaleAfter, when positive, is the staleness gate: once the last
	// successful sync is older than this (or none has succeeded yet) the
	// follower reports itself stale and its /healthz answers 503, so load
	// balancers stop routing to a replica that lost its primary. Zero
	// disables the gate — the follower serves its last replicated state
	// indefinitely.
	StaleAfter time.Duration
	// Client is the HTTP client for primary requests; nil uses a client
	// with a 30s timeout.
	Client *http.Client
	// Logf, when set, receives tail-loop diagnostics (error transitions,
	// re-bootstraps). Nil silences them.
	Logf func(format string, args ...any)
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return DefaultInterval
	}
	return o.Interval
}

// arityState is the follower's replication cursor for one arity.
type arityState struct {
	bootstrapped bool
	// nextSeq/offset name the next byte to fetch: the record-boundary
	// offset within segment nextSeq.
	nextSeq uint64
	offset  int64
	// applied counts records published into this arity's store.
	applied int64
	// lagSegments/lagBytes measure the backlog the last pass found: how
	// far behind its manifest the cursor was when the pass began — zero
	// when that pass found nothing new.
	lagSegments int
	lagBytes    int64
}

// Follower tails a primary into the read-only stores of a local
// federation registry. All methods are safe for concurrent use; the tail
// loop (Run or SyncOnce) applies records while the registry serves reads.
type Follower struct {
	reg    *federation.Registry
	opts   Options
	client *http.Client
	// api is the official typed client (pkg/client) every proxy-mode
	// request to the primary goes through. The tail loop keeps the raw
	// client: segment tailing streams bodies the typed client would
	// buffer.
	api *apiclient.Client

	mu         sync.Mutex
	arities    map[int]arityState
	lastSync   time.Time // last fully successful SyncOnce
	loggedErr  string
	syncs      int64
	syncErrors int64

	applied       atomic.Int64
	snapshotLoads atomic.Int64

	// Proxy counters, bumped by the follower HTTP handler.
	proxiedClassifies atomic.Int64
	proxiedInserts    atomic.Int64
	proxyErrors       atomic.Int64
}

// New returns a follower tailing opts.Primary into reg. The registry
// should be memory-only: classes enter it only through the follower's
// apply path, because the follower's handler answers every insert itself
// (read_only in local mode, forwarded to the primary in proxy mode).
func New(reg *federation.Registry, opts Options) *Follower {
	client := opts.Client
	if client == nil {
		// No whole-request timeout: a snapshot or segment body may be
		// arbitrarily large and must be allowed to stream for as long as
		// it takes (a body deadline would wedge bootstrap forever on big
		// stores). Dials and response headers are bounded instead; a
		// mid-body stall is bounded by the request context.
		client = &http.Client{Transport: &http.Transport{
			Proxy:                 http.ProxyFromEnvironment,
			DialContext:           (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			ResponseHeaderTimeout: 15 * time.Second,
			MaxIdleConnsPerHost:   4,
			IdleConnTimeout:       90 * time.Second,
		}}
	}
	f := &Follower{reg: reg, opts: opts, client: client, arities: map[int]arityState{}}
	// Proxying does not retry: a dead primary must degrade to local
	// answers within one round trip, not after a retry budget.
	f.api = apiclient.New(opts.Primary, apiclient.WithHTTPClient(client), apiclient.WithRetries(0))
	return f
}

// Registry returns the local registry the follower applies into.
func (f *Follower) Registry() *federation.Registry { return f.reg }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.opts.Primary }

// Mode returns the follower's miss/insert handling mode.
func (f *Follower) Mode() Mode { return f.opts.Mode }

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Run polls the primary every interval until ctx is cancelled — the
// follower's background tail loop. Sync errors do not stop the loop (the
// primary being down is an expected state a follower rides out serving
// its replicated classes); error transitions are reported through
// Options.Logf so a flapping primary does not flood the log.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.opts.interval())
	defer t.Stop()
	f.syncAndLog(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.syncAndLog(ctx)
		}
	}
}

// syncAndLog runs one sync and logs only error transitions: the first
// occurrence of a failure, and the recovery after one. A pass that Run's
// own cancellation ended logs nothing.
func (f *Follower) syncAndLog(ctx context.Context) {
	err := f.SyncOnce(ctx)
	if ctx.Err() != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case err != nil && err.Error() != f.loggedErr:
		f.loggedErr = err.Error()
		f.logf("replica: sync: %v", err)
	case err == nil && f.loggedErr != "":
		f.loggedErr = ""
		f.logf("replica: sync recovered (primary %s)", f.opts.Primary)
	}
}

// SyncOnce performs one tail pass: fetch the manifest, then bootstrap or
// advance every listed arity. It returns the first per-arity error after
// attempting every arity (one broken arity does not starve the others);
// the sync counts as successful — refreshing the staleness clock — only
// when every arity advanced cleanly.
func (f *Follower) SyncOnce(ctx context.Context) error {
	var m federation.Manifest
	if err := f.getJSON(ctx, "/v1/wal/segments", &m); err != nil {
		f.noteSync(ctx, err)
		return err
	}
	var firstErr error
	for _, am := range m.Arities {
		// A primary federating a wider range than this follower is fine:
		// the out-of-range arities simply are not replicated here, and
		// must not poison the staleness clock of the ones that are.
		if am.Arity < f.reg.MinVars() || am.Arity > f.reg.MaxVars() {
			continue
		}
		if err := f.syncArity(ctx, am); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("arity %d: %w", am.Arity, err)
		}
	}
	f.noteSync(ctx, firstErr)
	return firstErr
}

// noteSync records a sync outcome for staleness and stats. A pass that
// ctx's cancellation ended records nothing: a follower shutting down has
// not failed a sync. The error text itself goes to the log (Run).
func (f *Follower) noteSync(ctx context.Context, err error) {
	if ctx.Err() != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if err != nil {
		f.syncErrors++
		return
	}
	f.lastSync = time.Now()
}

// cursor returns a copy of arity n's replication cursor; commit stores
// an updated copy back. The tail loop is the only writer (one Run
// goroutine), working on its private copy between the two calls, so
// Stats can read consistent cursors under the same mutex at any time.
func (f *Follower) cursor(n int) arityState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.arities[n]
}

func (f *Follower) commit(n int, a arityState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arities[n] = a
}

// syncArity advances one arity's cursor through the manifest: bootstrap
// from the snapshot if this is the first sight of the arity (or our
// position was compacted away), then tail every listed segment from the
// saved offset. The lag is measured first, against this pass's fresh
// manifest, so it reports the backlog the pass found. The cursor —
// including partial progress before an error — is committed on every
// exit path.
func (f *Follower) syncArity(ctx context.Context, am federation.ArityManifest) (err error) {
	svc, err := f.reg.Service(am.Arity)
	if err != nil {
		return err // primary serves an arity outside the follower's range
	}
	st := svc.Store()
	a := f.cursor(am.Arity)
	a.updateLag(am)
	defer func() { f.commit(am.Arity, a) }()

	if !a.bootstrapped {
		if am.HasSnapshot {
			if err := f.loadSnapshot(ctx, am.Arity, st, &a); err != nil {
				return err
			}
		} else if len(am.Segments) > 0 && am.Segments[0].Seq > 1 {
			// Segments were compacted away but no snapshot is listed: an
			// inconsistent manifest (a compaction raced it, or the
			// snapshot was lost). Starting at the listed segments would
			// silently skip every compacted class — wait for a manifest
			// that accounts for the full history.
			return fmt.Errorf("manifest lists segments from %d but no snapshot; waiting for a consistent manifest", am.Segments[0].Seq)
		}
		a.nextSeq, a.offset = am.ActiveSeq, 0
		if len(am.Segments) > 0 {
			a.nextSeq = am.Segments[0].Seq
		}
		a.bootstrapped = true
	} else if len(am.Segments) > 0 && a.nextSeq < am.Segments[0].Seq {
		// The segment we were positioned in was compacted into the
		// snapshot. Re-apply the snapshot (idempotent: apply dedups by
		// exact table) and resume at the first surviving segment. Without
		// a listed snapshot the jump would drop the compacted records —
		// hold position and retry when the manifest is consistent.
		if !am.HasSnapshot {
			return fmt.Errorf("segments below %d vanished but manifest lists no snapshot; waiting for a consistent manifest", am.Segments[0].Seq)
		}
		f.logf("replica: arity %d segment %d compacted away, re-bootstrapping from snapshot", am.Arity, a.nextSeq)
		if err := f.loadSnapshot(ctx, am.Arity, st, &a); err != nil {
			return err
		}
		a.nextSeq, a.offset = am.Segments[0].Seq, 0
	}

	for _, seg := range am.Segments {
		if seg.Seq < a.nextSeq {
			continue
		}
		if seg.Seq > a.nextSeq {
			// The cursor's segment is not done (a rotation listed its
			// successor before the cursor finished it, or a truncated
			// fetch left an unread tail). Never jump past it — that would
			// silently drop its remaining records; stop here and let the
			// next manifest poll resolve it (as sealed, or as compacted
			// via the re-bootstrap branch above).
			break
		}
		if err := f.tailSegment(ctx, am.Arity, st, seg, &a); err != nil {
			return err
		}
		if seg.Sealed {
			a.nextSeq, a.offset = seg.Seq+1, 0
		}
	}
	return nil
}

// updateLag measures the cursor against a manifest: the segments and
// bytes listed that the cursor has not passed. A cursor that a previous
// pass left at each segment's live end reads zero against a manifest
// listing nothing newer.
func (a *arityState) updateLag(am federation.ArityManifest) {
	a.lagSegments, a.lagBytes = 0, 0
	for _, s := range am.Segments {
		var behind int64
		switch {
		case s.Seq < a.nextSeq:
			continue
		case s.Seq == a.nextSeq:
			behind = s.Size - a.offset
		default:
			behind = s.Size
		}
		if behind > 0 {
			a.lagSegments++
			a.lagBytes += behind
		}
	}
}

// loadSnapshot fetches and applies one arity's base snapshot. A 404 (no
// compaction has run on the primary yet) applies nothing.
func (f *Follower) loadSnapshot(ctx context.Context, n int, st *store.Store, a *arityState) error {
	resp, err := f.get(ctx, fmt.Sprintf("/v1/wal/snapshot/%d", n))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot fetch: %s", resp.Status)
	}
	fs, err := ttio.Read(resp.Body, n)
	if err != nil {
		return fmt.Errorf("snapshot parse: %w", err)
	}
	applied := int64(st.ApplySnapshot(fs))
	f.applied.Add(applied)
	f.snapshotLoads.Add(1)
	a.applied += applied
	return nil
}

// tailSegment streams one segment from the cursor's offset to its
// current end, applying every whole record and advancing the offset. A
// partial tail is the clean stop condition on the active segment (the
// primary is mid-append; resume next poll) and an error on a sealed one.
func (f *Follower) tailSegment(ctx context.Context, n int, st *store.Store, seg federation.SegmentInfo, a *arityState) error {
	if seg.Sealed && a.offset >= seg.Size {
		return nil // already consumed in a previous pass
	}
	meta, err := strconv.ParseUint(seg.Meta, 16, 64)
	if err != nil {
		return fmt.Errorf("segment %d: bad manifest meta %q", seg.Seq, seg.Meta)
	}
	resp, err := f.get(ctx, fmt.Sprintf("/v1/wal/segment/%d/%d?offset=%d", n, seg.Seq, a.offset))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("segment %d gone (compacted); will re-bootstrap", seg.Seq)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("segment %d fetch: %s", seg.Seq, resp.Status)
	}
	r := wal.NewReader(resp.Body, a.offset)
	applied := int64(0)
	defer func() {
		f.applied.Add(applied)
		a.applied += applied
	}()
	for {
		rec, rerr := r.Next()
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF):
			a.offset = r.Offset()
			return nil
		case errors.Is(rerr, wal.ErrPartial):
			a.offset = r.Offset()
			if seg.Sealed {
				// A sealed segment is complete on the primary's disk; a
				// short stream here is a truncated response — retry from
				// the boundary next poll.
				return fmt.Errorf("segment %d: sealed but incomplete: %w", seg.Seq, rerr)
			}
			return nil // caught the primary mid-append
		default:
			return fmt.Errorf("segment %d: %w", seg.Seq, rerr)
		}
		if rec.Arity != n {
			return fmt.Errorf("segment %d holds an arity-%d record, arity %d expected", seg.Seq, rec.Arity, n)
		}
		if hm, ok := r.Meta(); ok {
			meta = hm // offset 0: the stream's own header wins
		}
		if st.ApplyLogRecord(meta, rec.Key, rec.TT) {
			applied++
		}
		a.offset = r.Offset()
	}
}

// get issues one GET against the primary.
func (f *Follower) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

// getJSON issues one GET and decodes a JSON body.
func (f *Follower) getJSON(ctx context.Context, path string, v any) error {
	resp, err := f.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Stale reports whether the staleness gate is tripped: StaleAfter is set
// and no sync has succeeded within it. A follower that has never synced
// is stale until its first successful pass, so a load balancer never
// routes to an empty replica.
func (f *Follower) Stale() bool {
	if f.opts.StaleAfter <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastSync.IsZero() || time.Since(f.lastSync) > f.opts.StaleAfter
}

// ArityLag is one arity's replication progress and lag.
type ArityLag struct {
	Arity          int
	AppliedRecords int64
	LagSegments    int
	LagBytes       int64
}

// Stats is a snapshot of a follower's replication state: the tail loop's
// health, the proxy counters and the per-arity lag in segments and bytes.
type Stats struct {
	Syncs         int64
	SyncErrors    int64
	LastSyncAgeMs float64 // -1 before the first success
	Stale         bool

	AppliedRecords int64
	SnapshotLoads  int64

	ProxiedClassifies int64
	ProxiedInserts    int64
	ProxyErrors       int64

	LagSegments int
	LagBytes    int64
	Arities     []ArityLag
}

// Stats returns a snapshot of the replication state.
func (f *Follower) Stats() Stats {
	st := Stats{
		Stale:             f.Stale(),
		AppliedRecords:    f.applied.Load(),
		SnapshotLoads:     f.snapshotLoads.Load(),
		ProxiedClassifies: f.proxiedClassifies.Load(),
		ProxiedInserts:    f.proxiedInserts.Load(),
		ProxyErrors:       f.proxyErrors.Load(),
		LastSyncAgeMs:     -1,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st.Syncs, st.SyncErrors = f.syncs, f.syncErrors
	if !f.lastSync.IsZero() {
		st.LastSyncAgeMs = float64(time.Since(f.lastSync).Nanoseconds()) / 1e6
	}
	for n := f.reg.MinVars(); n <= f.reg.MaxVars(); n++ {
		a, ok := f.arities[n]
		if !ok {
			continue
		}
		st.Arities = append(st.Arities, ArityLag{
			Arity:          n,
			AppliedRecords: a.applied,
			LagSegments:    a.lagSegments,
			LagBytes:       a.lagBytes,
		})
		st.LagSegments += a.lagSegments
		st.LagBytes += a.lagBytes
	}
	return st
}
