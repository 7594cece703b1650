package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run: what a caller of npnserve
// sees. fail_frac is printed too, but it is 0 on a correct build, so it
// travels as the result's failed/attempted counts instead of a bounded
// metric. The closed loop's p99 is printed but not bounded: over ten
// seeds it spread by more than a tenth on classify-cold and
// insert-durable, so req_p99_ms is a per-layer metric of the traced run.
var endToEnd = []metricDef{
	{"fn_per_s", "fn/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"server_cpu_us_per_fn", "us", "lower"},
	{"server_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run. LEDGER.md maps each to the
// end-to-end metric and workload it moves.
var perLayer = []metricDef{
	{"req_p99_ms", "ms", "lower"},
	{"edge.self_us_per_req", "us", "lower"},
	{"client.self_us_per_req", "us", "lower"},
	{"client.allocs_per_req", "count", "lower"},
	{"http.self_us_per_req", "us", "lower"},
	{"api.self_us_per_req", "us", "lower"},
	{"api.allocs_per_req", "count", "lower"},
	{"api.resp_bytes_per_fn", "B", "lower"},
	{"federation.self_us_per_batch", "us", "lower"},
	{"federation.allocs_per_batch", "count", "lower"},
	{"service.self_us_per_batch", "us", "lower"},
	{"service.allocs_per_fn", "count", "lower"},
	{"service.dedup_ratio", "ratio", "higher"},
	{"service.lru_hit_ratio", "ratio", "higher"},
	{"core.hash_us_per_fn", "us", "lower"},
	{"sig.face_us_per_fn", "us", "lower"},
	{"sig.point_us_per_fn", "us", "lower"},
	{"store.us_per_lookup", "us", "lower"},
	{"store.certify_us_per_fn", "us", "lower"},
	{"store.profile_hit_ratio", "ratio", "higher"},
	{"store.allocs_per_lookup", "count", "lower"},
	{"store.us_per_add", "us", "lower"},
	{"store.new_class_ratio", "ratio", "lower"},
	{"store.chain_max", "count", "lower"},
	{"wal.append_us_per_record", "us", "lower"},
	{"wal.fsync_ms_p50", "ms", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.bytes_per_class", "B", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"loadgen.cpu_us_per_fn", "us", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// result is one run's outcome: requests attempted and failed, problems
// that fail the run without belonging to one request (a /metrics count
// mismatch, a class lost across restart), and the metric values with the
// sample counts behind the timings that have them.
type result struct {
	attempted, failed int
	problems          []string
	notes             []string
	values            map[string]float64
	samples           map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value. A ratio over an empty base reads 0, never
// NaN, so the JSON result always encodes.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// setN records a timing together with its sample count.
func (r *result) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs by name with its unit, then the JSON
// result line, and returns whether the run was correct.
func (r *result) report(w io.Writer, cfg config, defs []metricDef) bool {
	correct := r.failed == 0 && len(r.problems) == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s %s seed %d: %d requests attempted, %d failed\n",
		cfg.workload, mode, cfg.seed, r.attempted, r.failed)
	fmt.Fprintf(w, "%-30s %14.6g %s\n", "fail_frac", ratio(float64(r.failed), float64(r.attempted)), "frac")
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			correct = false
			fmt.Fprintf(w, "FAIL metric %s was not measured\n", d.name)
			continue
		}
		line := fmt.Sprintf("%-30s %14.6g %s", d.name, v, d.unit)
		if n := r.samples[d.name]; n > 0 {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintln(w, line)
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(w, "FAIL encoding result:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return correct
}

// ratio is a/b, or 0 over an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of ds, sorting a copy.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}
