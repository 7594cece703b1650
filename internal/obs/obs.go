// Package obs is the observability layer of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms with quantile estimation) rendered in
// the Prometheus text exposition format, a matching parser (the scrape
// side pkg/client and the CI smoke use), and the HTTP middleware that
// stamps every request with a request ID and records per-route latency
// distributions.
//
// The registry is deliberately a *view*, not a second source of truth:
// every layer of the stack (internal/service, internal/store,
// internal/wal, internal/federation, internal/replica) already keeps its
// own atomic counters, and those layers register pull collectors
// (RegisterFunc) that read the very same atomics at scrape time. The
// /metrics exposition is the server's one read-out of those counters.
// Only genuinely new measurements — latency distributions — live in the
// registry itself, as push-updated histograms.
//
// Instruments are safe for concurrent use; Observe/Add/Set are a handful
// of atomic operations and are safe to call from hot paths, including
// while another goroutine renders the registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type, as published on its # TYPE line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition-format spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// validName matches legal metric and label names.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
// Registration (typically at process start) and rendering are guarded by
// one mutex; instrument updates are lock-free.
type Registry struct {
	mu    sync.Mutex
	names map[string]Kind // every registered family name, for dup detection
	insts []*family       // instrument-backed families
	funcs []*funcSource   // pull collectors
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]Kind{}}
}

// family is one instrument-backed metric family: a name, help text, kind,
// label schema and its children (one per label-value combination).
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// child is one labeled series of a family.
type child struct {
	labelValues []string
	val         atomicFloat // counters and gauges
	hist        *Histogram  // histograms
}

// FuncFamily declares one family a pull collector emits into.
type FuncFamily struct {
	Name   string
	Help   string
	Kind   Kind // KindCounter or KindGauge
	Labels []string
}

// funcSource is a registered pull collector: the families it declares and
// the collect closure that emits their samples at render time.
type funcSource struct {
	fams    []FuncFamily
	collect func(emit func(fam int, labelValues []string, value float64))
}

// register adds a family name, panicking on duplicates or bad names —
// both are programmer errors, caught at process start like the Router's
// duplicate-route panic.
func (r *Registry) register(name string, kind Kind, labelNames []string) {
	if !validName.MatchString(name) {
		panic("obs: bad metric name " + name)
	}
	for _, l := range labelNames {
		if !validName.MatchString(l) || l == "le" {
			panic("obs: bad label name " + l + " on " + name)
		}
	}
	if _, dup := r.names[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = kind
}

func (r *Registry) newFamily(name, help string, kind Kind, buckets []float64, labelNames ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, kind, labelNames)
	f := &family{name: name, help: help, kind: kind, labelNames: labelNames,
		buckets: buckets, children: map[string]*child{}}
	r.insts = append(r.insts, f)
	return f
}

// childFor returns (creating if needed) the series for one label-value
// combination.
func (f *family) childFor(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			c.hist = newHistogram(f.buckets)
		}
		f.children[key] = c
	}
	return c
}

// labelKey joins label values into a map key; 0x1f never appears in
// sane label values and keeps distinct tuples distinct.
func labelKey(values []string) string {
	out := ""
	for i, v := range values {
		if i > 0 {
			out += "\x1f"
		}
		out += v
	}
	return out
}

// Counter is a monotonically increasing series.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.val.add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) { c.c.val.add(v) }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.c.val.load() }

// Gauge is a series that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.c.val.store(v) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.c.val.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.c.val.load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.childFor(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{v.f.childFor(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.childFor(labelValues).hist
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.newFamily(name, help, KindCounter, nil).childFor(nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.newFamily(name, help, KindGauge, nil).childFor(nil)}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.newFamily(name, help, KindCounter, nil, labelNames...)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.newFamily(name, help, KindGauge, nil, labelNames...)}
}

// Histogram registers an unlabeled fixed-bucket histogram. Buckets are
// upper bounds in increasing order; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.newFamily(name, help, KindHistogram, checkBuckets(buckets)).childFor(nil).hist
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.newFamily(name, help, KindHistogram, checkBuckets(buckets), labelNames...)}
}

// GaugeFunc registers a gauge whose value is computed at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.RegisterFunc([]FuncFamily{{Name: name, Help: help, Kind: KindGauge}},
		func(emit func(int, []string, float64)) { emit(0, nil, fn()) })
}

// RegisterFunc registers a pull collector: fams declares the families it
// serves, collect is called once per Render and emits samples by family
// index. This is how the serving layers export their existing atomic
// counters without keeping a second copy — one snapshot feeds many
// families.
func (r *Registry) RegisterFunc(fams []FuncFamily, collect func(emit func(fam int, labelValues []string, value float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fams {
		if f.Kind == KindHistogram {
			panic("obs: func collectors cannot serve histograms (" + f.Name + ")")
		}
		r.register(f.Name, f.Kind, f.Labels)
	}
	r.funcs = append(r.funcs, &funcSource{fams: fams, collect: collect})
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: per-bucket atomic counters, a
// running sum, and quantile estimation by linear interpolation within the
// bucket the rank falls into. Observe is a bucket search plus three
// atomic adds — cheap enough for per-request paths.
type Histogram struct {
	buckets []float64       // upper bounds, increasing; +Inf implicit
	counts  []atomic.Uint64 // len(buckets)+1, last is +Inf
	count   atomic.Uint64
	sum     atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

func checkBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must increase")
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic("obs: +Inf bucket is implicit")
	}
	return append([]float64(nil), buckets...)
}

// Observe records one value. NaN and negative inputs are clamped to
// zero — they land in the first bucket and contribute nothing to the
// sum — so a bad caller cannot poison the +Inf bucket or the quantile
// estimates (NaN would otherwise sort past every bound and corrupt the
// running sum permanently).
func (h *Histogram) Observe(v float64) {
	if v != v || v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit for time.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// snapshot returns cumulative bucket counts (aligned with buckets, plus
// +Inf last), the total count and the sum. Under concurrent Observe the
// three are not one atomic cut; the render tolerates the skew the same
// way Prometheus client libraries do, but cumulative counts are clamped
// monotone so the exposition is always a valid histogram.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	count = h.count.Load()
	if count < run {
		count = run // a racing Observe bumped a bucket first
	}
	cum[len(cum)-1] = count
	return cum, count, h.sum.load()
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution: the rank is located in its bucket and interpolated
// linearly between the bucket's bounds. Values in the +Inf bucket
// estimate as the highest finite bound. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	cum, count, _ := h.snapshot()
	return QuantileFromBuckets(h.buckets, cum, count, q)
}

// QuantileFromBuckets estimates a quantile from cumulative bucket counts
// — the same estimation Histogram.Quantile uses, exported so scraped
// histograms (Scrape, the bench trajectory) share one definition.
// buckets are the finite upper bounds; cum is cumulative and one longer
// (the +Inf bucket); count is the total observation count.
func QuantileFromBuckets(buckets []float64, cum []uint64, count uint64, q float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	rank := q * float64(count)
	for i, ub := range buckets {
		c := float64(cum[i])
		if c < rank {
			continue
		}
		lb, prev := 0.0, 0.0
		if i > 0 {
			lb, prev = buckets[i-1], float64(cum[i-1])
		}
		if c == prev {
			return ub
		}
		return lb + (ub-lb)*(rank-prev)/(c-prev)
	}
	// Rank falls in the +Inf bucket: the highest finite bound is the best
	// defensible estimate.
	return buckets[len(buckets)-1]
}

// DurationBuckets are the default latency buckets in seconds: 100µs to
// 10s, roughly exponential — wide enough for a cached lookup and a cold
// mapping alike.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// SizeBuckets are the default size buckets (batch lengths, byte counts):
// powers of four from 1 to 64k.
func SizeBuckets() []float64 {
	return []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
}

// sample is one rendered series line.
type sample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels []labelPair
	value  float64
}

type labelPair struct{ name, value string }

// Render writes the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with its # HELP and
// # TYPE line, children sorted by label values, histograms expanded into
// cumulative _bucket/_sum/_count series.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	type fam struct {
		name, help string
		kind       Kind
		samples    []sample
	}
	fams := map[string]*fam{}
	order := []string{}
	add := func(name, help string, kind Kind) *fam {
		f, ok := fams[name]
		if !ok {
			f = &fam{name: name, help: help, kind: kind}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, inst := range r.insts {
		f := add(inst.name, inst.help, inst.kind)
		inst.mu.Lock()
		children := make([]*child, 0, len(inst.children))
		for _, c := range inst.children {
			children = append(children, c)
		}
		inst.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return labelKey(children[i].labelValues) < labelKey(children[j].labelValues)
		})
		for _, c := range children {
			base := pairs(inst.labelNames, c.labelValues)
			if inst.kind != KindHistogram {
				f.samples = append(f.samples, sample{labels: base, value: c.val.load()})
				continue
			}
			cum, count, sum := c.hist.snapshot()
			for i, ub := range inst.buckets {
				f.samples = append(f.samples, sample{suffix: "_bucket",
					labels: append(append([]labelPair{}, base...), labelPair{"le", formatFloat(ub)}),
					value:  float64(cum[i])})
			}
			f.samples = append(f.samples, sample{suffix: "_bucket",
				labels: append(append([]labelPair{}, base...), labelPair{"le", "+Inf"}),
				value:  float64(count)})
			f.samples = append(f.samples, sample{suffix: "_sum", labels: base, value: sum})
			f.samples = append(f.samples, sample{suffix: "_count", labels: base, value: float64(count)})
		}
	}
	for _, fs := range r.funcs {
		for i := range fs.fams {
			add(fs.fams[i].Name, fs.fams[i].Help, fs.fams[i].Kind)
		}
		fs.collect(func(i int, labelValues []string, v float64) {
			decl := fs.fams[i]
			if len(labelValues) != len(decl.Labels) {
				panic(fmt.Sprintf("obs: %s wants %d label values, got %d", decl.Name, len(decl.Labels), len(labelValues)))
			}
			fams[decl.Name].samples = append(fams[decl.Name].samples,
				sample{labels: pairs(decl.Labels, labelValues), value: v})
		})
	}
	r.mu.Unlock()

	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		sort.SliceStable(f.samples, func(i, j int) bool {
			return sampleKey(f.samples[i]) < sampleKey(f.samples[j])
		})
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := io.WriteString(w, renderSample(f.name, s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleKey orders a family's samples: label values first so one child's
// bucket/sum/count lines stay grouped, then the suffix (buckets are
// already in le order from construction; stable sort preserves it).
func sampleKey(s sample) string {
	key := ""
	for _, p := range s.labels {
		if p.name == "le" {
			continue
		}
		key += p.value + "\x1f"
	}
	switch s.suffix {
	case "_bucket":
		return key + "0"
	case "_sum":
		return key + "1"
	case "_count":
		return key + "2"
	}
	return key
}

func pairs(names, values []string) []labelPair {
	out := make([]labelPair, len(names))
	for i := range names {
		out[i] = labelPair{names[i], values[i]}
	}
	return out
}

func renderSample(name string, s sample) string {
	out := name + s.suffix
	if len(s.labels) > 0 {
		out += "{"
		for i, p := range s.labels {
			if i > 0 {
				out += ","
			}
			out += p.name + `="` + escapeLabel(p.value) + `"`
		}
		out += "}"
	}
	return out + " " + formatFloat(s.value) + "\n"
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

func escapeHelp(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
