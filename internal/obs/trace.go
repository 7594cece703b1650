package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceParentHeader carries trace context across a proxy hop: a follower
// forwarding a request to its primary stamps "<trace id>/<span id>" so
// the primary's trace records which remote span it serves under. The two
// processes keep separate traces (there is no server-side merge); the
// shared request ID and the recorded parent are the join key.
const TraceParentHeader = "X-Trace-Parent"

// DefaultTraceBuffer is the flight recorder's default capacity in
// retained traces.
const DefaultTraceBuffer = 256

// maxSpans bounds one trace's span count so a pathological batch cannot
// turn a single request into an unbounded allocation; spans past the cap
// are counted, not recorded.
const maxSpans = 512

const activeSpanKey ctxKey = 1

// Attr is one span attribute, recorded in insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a traced request. The zero-cost contract:
// every method is safe (and a no-op) on a nil receiver, and StartSpan
// returns a nil span outside a traced request, so instrumentation points
// cost one context lookup when tracing is off.
type Span struct {
	tr     *Trace
	id     int
	parent int // index into the trace's span list; -1 for the root
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
	ended  bool
}

// End marks the span finished, capturing its duration from the monotonic
// clock. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetAttr attaches a string attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute to the span.
func (s *Span) SetInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetBool attaches a boolean attribute to the span.
func (s *Span) SetBool(key string, value bool) {
	if value {
		s.SetAttr(key, "true")
	} else {
		s.SetAttr(key, "false")
	}
}

// StartSpan starts a child span under ctx's active span and returns a
// context carrying the new span as the active one. Outside a traced
// request (or past the per-trace span cap) the span is nil and the
// context is returned unchanged; nil spans swallow End and Set* calls,
// so call sites never branch on whether tracing is on.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(activeSpanKey).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.startSpan(name, parent.id)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, activeSpanKey, sp), sp
}

// TraceParent returns the X-Trace-Parent value propagating ctx's active
// span across a process hop ("<trace id>/<span id>"), or "" outside a
// traced request.
func TraceParent(ctx context.Context) string {
	sp, _ := ctx.Value(activeSpanKey).(*Span)
	if sp == nil {
		return ""
	}
	return sp.tr.id + "/" + strconv.Itoa(sp.id)
}

// Trace is one request's span timeline. Spans live in a flat list (index
// 0 is the root) with parent indices; the tree is materialized only when
// a debug endpoint renders it. All span mutation is guarded by one mutex
// because batch fan-out creates spans from worker goroutines.
type Trace struct {
	id     string // the request's X-Request-Id
	route  string
	method string
	remote string // received X-Trace-Parent, "" when this is a fresh root
	start  time.Time

	mu      sync.Mutex
	spans   []*Span
	dropped int // spans rejected by the per-trace cap

	// Set at Finish.
	status int
	dur    time.Duration
	reason string // why the recorder kept it: "error", "slow", "sampled"
}

func (t *Trace) startSpan(name string, parent int) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	sp := &Span{tr: t, id: len(t.spans), parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, sp)
	return sp
}

// ID returns the trace's identifier — the request's X-Request-Id.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// TopSelf returns up to k "name=1.234ms" strings, the span names ranked
// by total self-time (duration minus direct children) — the slow-request
// log's attribution line. Unended spans contribute their elapsed time.
func (t *Trace) TopSelf(k int) []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	durs := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		if sp.ended {
			durs[i] = sp.dur
		} else {
			durs[i] = time.Since(sp.start)
		}
	}
	childSum := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		if sp.parent >= 0 && sp.parent < len(t.spans) {
			childSum[sp.parent] += durs[i]
		}
	}
	byName := map[string]time.Duration{}
	for i, sp := range t.spans {
		self := durs[i] - childSum[i]
		if self < 0 {
			self = 0
		}
		byName[sp.name] += self
	}
	type nameSelf struct {
		name string
		d    time.Duration
	}
	ranked := make([]nameSelf, 0, len(byName))
	for n, d := range byName {
		ranked = append(ranked, nameSelf{n, d})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].d != ranked[j].d {
			return ranked[i].d > ranked[j].d
		}
		return ranked[i].name < ranked[j].name
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.name + "=" + strconv.FormatFloat(float64(r.d.Nanoseconds())/1e6, 'f', 3, 64) + "ms"
	}
	return out
}

// TraceSummary is one row of the flight recorder listing
// (GET /v2/debug/traces).
type TraceSummary struct {
	ID         string  `json:"id"`
	Route      string  `json:"route"`
	Method     string  `json:"method"`
	Status     int     `json:"status"`
	Start      string  `json:"start"` // RFC3339Nano
	DurationMs float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Reason     string  `json:"reason"` // "error" | "slow" | "sampled"
	// Remote is the X-Trace-Parent this trace was rooted under, empty for
	// a fresh root. A follower-proxied request leaves the primary's trace
	// pointing at the follower's hop span.
	Remote string `json:"remote,omitempty"`
}

// TraceList is the body of GET /v2/debug/traces.
type TraceList struct {
	Traces []TraceSummary `json:"traces"`
}

// SpanNode is one span in the rendered tree of GET /v2/debug/traces/{id}.
// Offsets and durations are microseconds: fine enough for a µs-scale
// cached lookup, and integers keep the JSON stable.
type SpanNode struct {
	Name       string     `json:"name"`
	StartUs    int64      `json:"start_us"` // offset from trace start
	DurationUs int64      `json:"duration_us"`
	SelfUs     int64      `json:"self_us"` // duration minus direct children
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []SpanNode `json:"children,omitempty"`
}

// TraceDetail is the body of GET /v2/debug/traces/{id}: the summary plus
// the full span tree.
type TraceDetail struct {
	TraceSummary
	DroppedSpans int      `json:"dropped_spans,omitempty"`
	Root         SpanNode `json:"root"`
}

func (t *Trace) summaryLocked() TraceSummary {
	return TraceSummary{
		ID:         t.id,
		Route:      t.route,
		Method:     t.method,
		Status:     t.status,
		Start:      t.start.Format(time.RFC3339Nano),
		DurationMs: float64(t.dur.Nanoseconds()) / 1e6,
		Spans:      len(t.spans),
		Reason:     t.reason,
		Remote:     t.remote,
	}
}

// Summary renders the trace's listing row.
func (t *Trace) Summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.summaryLocked()
}

// Detail renders the trace's full span tree.
func (t *Trace) Detail() TraceDetail {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceDetail{TraceSummary: t.summaryLocked(), DroppedSpans: t.dropped}
	if len(t.spans) > 0 {
		d.Root = t.buildNodeLocked(0)
	}
	return d
}

func (t *Trace) buildNodeLocked(i int) SpanNode {
	sp := t.spans[i]
	n := SpanNode{
		Name:       sp.name,
		StartUs:    sp.start.Sub(t.start).Microseconds(),
		DurationUs: sp.dur.Microseconds(),
		Attrs:      sp.attrs,
	}
	var childSum time.Duration
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].parent == i {
			n.Children = append(n.Children, t.buildNodeLocked(j))
			childSum += t.spans[j].dur
		}
	}
	self := sp.dur - childSum
	if self < 0 {
		self = 0
	}
	n.SelfUs = self.Microseconds()
	return n
}

// TraceOptions configures a Tracer.
type TraceOptions struct {
	// Buffer is the flight recorder's capacity in retained traces; the
	// ring evicts oldest-first. Zero means DefaultTraceBuffer.
	Buffer int
	// Sample is the probability an unremarkable trace (fast, non-error)
	// is retained, 0..1. Error traces and traces at least Slow are always
	// retained — that is the tail-based part — except guard rejections
	// (401/429), which an unauthenticated client can mint for free and
	// which therefore only qualify through the slow or sampled criteria.
	// Sampling is deterministic: every round(1/Sample)-th unremarkable
	// trace is kept.
	Sample float64
	// Slow is the duration at or above which a trace is always retained.
	// Zero disables the slow criterion.
	Slow time.Duration
}

// Tracer roots per-request traces and retains a tail-sampled subset in a
// bounded ring buffer — the flight recorder behind /v2/debug/traces.
type Tracer struct {
	capacity int
	slow     time.Duration
	every    uint64 // keep 1 in `every` unremarkable traces; 0 keeps none
	seq      atomic.Uint64

	mu   sync.Mutex
	ring []*Trace
	next int // overwrite cursor once the ring is full

	sampled  *Counter
	retained *Counter
	dropped  *Counter
}

// NewTracer builds a tracer and, when r is non-nil, registers its health
// counters: npn_trace_sampled_total (traces finished and offered to the
// recorder), npn_trace_retained_total (kept) and npn_trace_dropped_total
// (discarded by sampling).
func NewTracer(r *Registry, o TraceOptions) *Tracer {
	t := &Tracer{capacity: o.Buffer, slow: o.Slow}
	if t.capacity <= 0 {
		t.capacity = DefaultTraceBuffer
	}
	switch {
	case o.Sample >= 1:
		t.every = 1
	case o.Sample > 0:
		t.every = uint64(1/o.Sample + 0.5)
	}
	if r != nil {
		t.sampled = r.Counter("npn_trace_sampled_total",
			"Traces finished and offered to the flight recorder.")
		t.retained = r.Counter("npn_trace_retained_total",
			"Traces the flight recorder kept (error, slow, or sampled).")
		t.dropped = r.Counter("npn_trace_dropped_total",
			"Traces discarded by tail sampling.")
	}
	return t
}

// StartTrace roots a new trace: the returned context carries the root
// span as the active one, so every StartSpan below nests under it. id is
// the request's X-Request-Id; parentHeader is the raw X-Trace-Parent (""
// or garbage degrades to a fresh root). Safe on a nil tracer, returning
// ctx unchanged and a nil trace.
func (t *Tracer) StartTrace(ctx context.Context, route, method, id, parentHeader string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	tr := &Trace{
		id:     id,
		route:  route,
		method: method,
		remote: SanitizeRequestID(parentHeader),
		start:  time.Now(),
	}
	root := &Span{tr: tr, id: 0, parent: -1, name: route, start: tr.start}
	tr.spans = []*Span{root}
	return context.WithValue(ctx, activeSpanKey, root), tr
}

// Finish completes a trace and applies the tail-sampling decision:
// retain on error status (>= 400), on duration at or past the slow
// threshold, or when the deterministic sampler picks it; drop otherwise.
// Guard rejections — 401 unauthorized and 429 rate_limited — are not
// errors for retention purposes: they cost an attacker nothing, so 256
// cheap probes must not flush the ring of the slow and failing traces
// an operator actually needs. They still qualify as slow or sampled.
// Safe on a nil tracer or nil trace.
func (t *Tracer) Finish(tr *Trace, status int, d time.Duration) {
	if t == nil || tr == nil {
		return
	}
	tr.mu.Lock()
	root := tr.spans[0]
	if !root.ended {
		root.ended = true
		root.dur = d
	}
	tr.status = status
	tr.dur = d

	reason := ""
	switch {
	case status >= 400 && status != 401 && status != 429:
		reason = "error"
	case t.slow > 0 && d >= t.slow:
		reason = "slow"
	case t.every == 1:
		reason = "sampled"
	case t.every > 1 && t.seq.Add(1)%t.every == 0:
		reason = "sampled"
	}
	tr.reason = reason
	tr.mu.Unlock()

	if t.sampled != nil {
		t.sampled.Inc()
	}
	if reason == "" {
		if t.dropped != nil {
			t.dropped.Inc()
		}
		return
	}
	if t.retained != nil {
		t.retained.Inc()
	}
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % t.capacity
	}
	t.mu.Unlock()
}

// snapshot returns the retained traces newest-first.
func (t *Tracer) snapshot() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.ring)
	out := make([]*Trace, 0, n)
	start := 0
	if n == t.capacity {
		start = t.next // oldest slot once the ring has wrapped
	}
	for i := n - 1; i >= 0; i-- {
		out = append(out, t.ring[(start+i)%n])
	}
	return out
}

// List renders the retained traces newest-first, filtered to traces at
// least minMs milliseconds long and (when route != "") to one route
// pattern. The Traces slice is always non-nil so the JSON is stable.
func (t *Tracer) List(minMs float64, route string) TraceList {
	out := TraceList{Traces: []TraceSummary{}}
	if t == nil {
		return out
	}
	for _, tr := range t.snapshot() {
		s := tr.Summary()
		if minMs > 0 && s.DurationMs < minMs {
			continue
		}
		if route != "" && s.Route != route {
			continue
		}
		out.Traces = append(out.Traces, s)
	}
	return out
}

// Get returns the full span tree of the retained trace with the given
// request ID. When the same ID was retained more than once the newest
// wins.
func (t *Tracer) Get(id string) (TraceDetail, bool) {
	if t == nil {
		return TraceDetail{}, false
	}
	for _, tr := range t.snapshot() {
		if tr.ID() == id {
			return tr.Detail(), true
		}
	}
	return TraceDetail{}, false
}
