package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// finish runs one trace through the tracer and returns it: route/method
// fixed, the caller picks id, status and duration.
func finishOne(t *Tracer, id string, status int, d time.Duration) *Trace {
	_, tr := t.StartTrace(context.Background(), "/v2/classify", "POST", id, "")
	t.Finish(tr, status, d)
	return tr
}

func TestStartSpanOutsideTraceIsNil(t *testing.T) {
	ctx := context.Background()
	octx, sp := StartSpan(ctx, "store.lookup")
	if sp != nil {
		t.Fatalf("StartSpan outside a trace: got span %v, want nil", sp)
	}
	if octx != ctx {
		t.Fatal("StartSpan outside a trace must return ctx unchanged")
	}
	// The whole nil-span surface must be no-ops, not panics.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetBool("b", true)
	if got := TraceParent(ctx); got != "" {
		t.Fatalf("TraceParent outside a trace = %q, want \"\"", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tracer *Tracer
	ctx, tr := tracer.StartTrace(context.Background(), "/v2/classify", "POST", "id", "")
	if tr != nil {
		t.Fatalf("nil tracer StartTrace: got trace %v, want nil", tr)
	}
	if _, sp := StartSpan(ctx, "x"); sp != nil {
		t.Fatal("nil tracer context must not carry an active span")
	}
	tracer.Finish(tr, 200, time.Millisecond)
	if got := tracer.List(0, ""); len(got.Traces) != 0 || got.Traces == nil {
		t.Fatalf("nil tracer List = %+v, want empty non-nil slice", got)
	}
	if _, ok := tracer.Get("id"); ok {
		t.Fatal("nil tracer Get must report not found")
	}
	if tr.ID() != "" {
		t.Fatal("nil trace ID must be empty")
	}
	if tr.TopSelf(3) != nil {
		t.Fatal("nil trace TopSelf must be nil")
	}
}

func TestSpanTreeDetail(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1})
	ctx, tr := tracer.StartTrace(context.Background(), "/v2/insert", "POST", "req-1", "")

	bctx, batch := StartSpan(ctx, "service.batch")
	batch.SetAttr("op", "insert")
	cctx, certify := StartSpan(bctx, "service.certify")
	certify.SetBool("new", true)
	_, fsync := StartSpan(cctx, "wal.fsync")
	fsync.End()
	certify.End()
	batch.End()

	tracer.Finish(tr, 200, 2*time.Millisecond)

	d, ok := tracer.Get("req-1")
	if !ok {
		t.Fatal("trace req-1 not retained at sample 1")
	}
	if d.Route != "/v2/insert" || d.Method != "POST" || d.Status != 200 {
		t.Fatalf("summary = %+v", d.TraceSummary)
	}
	if d.Reason != "sampled" {
		t.Fatalf("reason = %q, want sampled", d.Reason)
	}
	if d.Spans != 4 {
		t.Fatalf("spans = %d, want 4 (root + 3)", d.Spans)
	}
	if d.Root.Name != "/v2/insert" {
		t.Fatalf("root name = %q, want the route", d.Root.Name)
	}
	if len(d.Root.Children) != 1 || d.Root.Children[0].Name != "service.batch" {
		t.Fatalf("root children = %+v", d.Root.Children)
	}
	b := d.Root.Children[0]
	if len(b.Attrs) != 1 || b.Attrs[0] != (Attr{"op", "insert"}) {
		t.Fatalf("batch attrs = %+v", b.Attrs)
	}
	if len(b.Children) != 1 || b.Children[0].Name != "service.certify" {
		t.Fatalf("batch children = %+v", b.Children)
	}
	c := b.Children[0]
	if len(c.Children) != 1 || c.Children[0].Name != "wal.fsync" {
		t.Fatalf("certify children = %+v", c.Children)
	}
}

func TestTraceParentPropagation(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1})
	ctx, tr := tracer.StartTrace(context.Background(), "/v2/insert", "POST", "req-hop", "")
	if got := TraceParent(ctx); got != "req-hop/0" {
		t.Fatalf("root TraceParent = %q, want req-hop/0", got)
	}
	hctx, hop := StartSpan(ctx, "replica.primary_hop")
	parent := TraceParent(hctx)
	if parent != "req-hop/1" {
		t.Fatalf("hop TraceParent = %q, want req-hop/1", parent)
	}
	hop.End()
	tracer.Finish(tr, 200, time.Millisecond)

	// The primary side roots a fresh trace under the received header and
	// records it as the remote parent.
	_, ptr := tracer.StartTrace(context.Background(), "/v2/insert", "POST", "req-hop", parent)
	tracer.Finish(ptr, 200, time.Millisecond)
	d, ok := tracer.Get("req-hop")
	if !ok {
		t.Fatal("primary trace not retained")
	}
	if d.Remote != "req-hop/1" {
		t.Fatalf("remote = %q, want req-hop/1", d.Remote)
	}
}

func TestTailSamplingKeepsErrorsAndSlow(t *testing.T) {
	reg := NewRegistry()
	tracer := NewTracer(reg, TraceOptions{Sample: 0, Slow: 10 * time.Millisecond})

	finishOne(tracer, "fast-ok", 200, time.Millisecond)
	finishOne(tracer, "err", 500, time.Millisecond)
	finishOne(tracer, "slow", 200, 20*time.Millisecond)

	if _, ok := tracer.Get("fast-ok"); ok {
		t.Fatal("fast successful trace retained at sample 0")
	}
	d, ok := tracer.Get("err")
	if !ok || d.Reason != "error" {
		t.Fatalf("error trace: ok=%v reason=%q, want retained with reason error", ok, d.Reason)
	}
	d, ok = tracer.Get("slow")
	if !ok || d.Reason != "slow" {
		t.Fatalf("slow trace: ok=%v reason=%q, want retained with reason slow", ok, d.Reason)
	}
	if got := tracer.sampled.Value(); got != 3 {
		t.Fatalf("npn_trace_sampled_total = %v, want 3", got)
	}
	if got := tracer.retained.Value(); got != 2 {
		t.Fatalf("npn_trace_retained_total = %v, want 2", got)
	}
	if got := tracer.dropped.Value(); got != 1 {
		t.Fatalf("npn_trace_dropped_total = %v, want 1", got)
	}
}

// TestGuardRejectionsNotUnconditionallyRetained: 401/429 responses are
// mintable for free by an unauthenticated client, so they must not ride
// the always-keep-errors rule and flush the ring — they only qualify
// through the slow and sampled criteria like a successful request.
func TestGuardRejectionsNotUnconditionallyRetained(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 0, Slow: 10 * time.Millisecond})

	finishOne(tracer, "probe-401", 401, time.Millisecond)
	finishOne(tracer, "probe-429", 429, time.Millisecond)
	if _, ok := tracer.Get("probe-401"); ok {
		t.Fatal("cheap 401 probe retained at sample 0")
	}
	if _, ok := tracer.Get("probe-429"); ok {
		t.Fatal("cheap 429 probe retained at sample 0")
	}

	// A genuinely slow rejection is still interesting — the slow
	// criterion keeps it.
	d, ok := finishAndGet(tracer, "slow-429", 429, 20*time.Millisecond)
	if !ok || d.Reason != "slow" {
		t.Fatalf("slow 429: ok=%v reason=%q, want retained as slow", ok, d.Reason)
	}

	// Other 4xx/5xx remain unconditional: the error rule is untouched for
	// statuses a probe cannot mint without doing real work.
	d, ok = finishAndGet(tracer, "real-err", 400, time.Millisecond)
	if !ok || d.Reason != "error" {
		t.Fatalf("400: ok=%v reason=%q, want retained as error", ok, d.Reason)
	}

	// And at sample 1 a rejection is kept, but as an unremarkable sample.
	all := NewTracer(nil, TraceOptions{Sample: 1})
	d, ok = finishAndGet(all, "sampled-401", 401, time.Millisecond)
	if !ok || d.Reason != "sampled" {
		t.Fatalf("401 at sample 1: ok=%v reason=%q, want retained as sampled", ok, d.Reason)
	}
}

// finishAndGet runs one trace through the tracer and fetches it back.
func finishAndGet(t *Tracer, id string, status int, d time.Duration) (TraceDetail, bool) {
	finishOne(t, id, status, d)
	return t.Get(id)
}

func TestDeterministicSampling(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 0.5})
	if tracer.every != 2 {
		t.Fatalf("every = %d for sample 0.5, want 2", tracer.every)
	}
	for i := 0; i < 4; i++ {
		finishOne(tracer, "s", 200, time.Millisecond)
	}
	if got := len(tracer.List(0, "").Traces); got != 2 {
		t.Fatalf("retained %d of 4 at sample 0.5, want 2", got)
	}
}

func TestRingEvictsOldestNewestFirst(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1, Buffer: 2})
	finishOne(tracer, "a", 200, time.Millisecond)
	finishOne(tracer, "b", 200, time.Millisecond)
	finishOne(tracer, "c", 200, time.Millisecond)

	got := tracer.List(0, "")
	if len(got.Traces) != 2 {
		t.Fatalf("ring holds %d, want 2", len(got.Traces))
	}
	if got.Traces[0].ID != "c" || got.Traces[1].ID != "b" {
		t.Fatalf("listing = [%s %s], want newest-first [c b]",
			got.Traces[0].ID, got.Traces[1].ID)
	}
	if _, ok := tracer.Get("a"); ok {
		t.Fatal("oldest trace survived a full ring")
	}
}

func TestListFilters(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1})
	_, tr := tracer.StartTrace(context.Background(), "/v2/classify", "POST", "fast", "")
	tracer.Finish(tr, 200, time.Millisecond)
	_, tr = tracer.StartTrace(context.Background(), "/v2/insert", "POST", "slow", "")
	tracer.Finish(tr, 200, 50*time.Millisecond)

	if got := tracer.List(10, ""); len(got.Traces) != 1 || got.Traces[0].ID != "slow" {
		t.Fatalf("min_ms filter = %+v, want only the slow trace", got.Traces)
	}
	if got := tracer.List(0, "/v2/classify"); len(got.Traces) != 1 || got.Traces[0].ID != "fast" {
		t.Fatalf("route filter = %+v, want only /v2/classify", got.Traces)
	}
}

func TestMaxSpansCap(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1})
	ctx, tr := tracer.StartTrace(context.Background(), "/v2/classify", "POST", "cap", "")
	// The root span is the first of the cap; open cap+2 more.
	for i := 0; i < maxSpans+2; i++ {
		_, sp := StartSpan(ctx, "service.certify")
		if i < maxSpans-1 && sp == nil {
			t.Fatalf("span %d rejected below the cap", i)
		}
		if i >= maxSpans-1 && sp != nil {
			t.Fatalf("span %d recorded past the cap", i)
		}
		sp.End()
	}
	tracer.Finish(tr, 200, time.Millisecond)
	d, ok := tracer.Get("cap")
	if !ok {
		t.Fatal("capped trace not retained")
	}
	if d.Spans != maxSpans {
		t.Fatalf("spans = %d, want %d (the cap)", d.Spans, maxSpans)
	}
	if d.DroppedSpans != 3 {
		t.Fatalf("dropped_spans = %d, want 3", d.DroppedSpans)
	}
}

func TestTopSelf(t *testing.T) {
	tracer := NewTracer(nil, TraceOptions{Sample: 1})
	ctx, tr := tracer.StartTrace(context.Background(), "/v2/classify", "POST", "top", "")
	_, a := StartSpan(ctx, "store.lookup")
	a.End()
	tracer.Finish(tr, 200, 10*time.Millisecond)

	top := tr.TopSelf(3)
	if len(top) != 2 {
		t.Fatalf("TopSelf = %v, want 2 entries", top)
	}
	for _, s := range top {
		if !strings.Contains(s, "=") || !strings.HasSuffix(s, "ms") {
			t.Fatalf("TopSelf entry %q not name=N.NNNms shaped", s)
		}
	}
	if tr.TopSelf(1)[0] == "" {
		t.Fatal("TopSelf(1) empty")
	}
}

// TestHistogramObserveClampsGarbage pins the guard satellite: NaN and
// negative observations land in the first bucket with zero sum
// contribution instead of poisoning the +Inf bucket and the running sum.
func TestHistogramObserveClampsGarbage(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	nan := 0.0
	h.Observe(nan / nan) // NaN
	h.Observe(-5)
	h.Observe(1.5)

	cum, count, sum := h.snapshot()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if cum[0] != 2 {
		t.Fatalf("first bucket = %d, want the 2 clamped observations", cum[0])
	}
	if cum[len(cum)-1] != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", cum[len(cum)-1])
	}
	if sum != 1.5 {
		t.Fatalf("sum = %v, want 1.5 (clamped values contribute nothing)", sum)
	}
	if q := h.Quantile(0.99); q != q {
		t.Fatal("quantile is NaN after garbage observations")
	}
}
