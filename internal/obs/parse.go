package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the scrape side of the exposition format: a parser for the
// Prometheus text format the registry renders. pkg/client's Metrics()
// helper and the E2E tests read a live server through it, and the
// registry's own golden-file test round-trips Render output through Parse
// to lint the exposition.

// Sample is one parsed series: a metric name (including any _bucket /
// _sum / _count suffix), its label set and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label's value, or "" when absent.
func (s Sample) Label(name string) string { return s.Labels[name] }

// Scrape is a parsed /metrics payload.
type Scrape struct {
	// Samples holds every series line in document order.
	Samples []Sample
	// Types maps family name to the declared # TYPE ("counter", "gauge",
	// "histogram").
	Types map[string]string
}

// Value returns the value of the series with the given name whose labels
// include every given pair ("k=v"), and whether exactly such a series
// exists. Extra labels on the series are ignored, so callers can match
// on the labels they care about.
func (s *Scrape) Value(name string, labelPairs ...string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name != name || !matchLabels(sm.Labels, labelPairs) {
			continue
		}
		return sm.Value, true
	}
	return 0, false
}

// Sum sums every series of the given name whose labels include the given
// pairs — e.g. Sum("npn_http_request_duration_seconds_count",
// "route=/v2/classify") across methods and status classes.
func (s *Scrape) Sum(name string, labelPairs ...string) float64 {
	total := 0.0
	for _, sm := range s.Samples {
		if sm.Name == name && matchLabels(sm.Labels, labelPairs) {
			total += sm.Value
		}
	}
	return total
}

// Has reports whether any series of the given name with the given label
// pairs exists.
func (s *Scrape) Has(name string, labelPairs ...string) bool {
	for _, sm := range s.Samples {
		if sm.Name == name && matchLabels(sm.Labels, labelPairs) {
			return true
		}
	}
	return false
}

// Names returns the sorted set of distinct series names in the scrape.
func (s *Scrape) Names() []string {
	set := map[string]bool{}
	for _, sm := range s.Samples {
		set[sm.Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Quantile estimates quantile q of the named histogram family (pass the
// base name, without _bucket), restricted to series matching the given
// label pairs — the scrape-side twin of Histogram.Quantile, sharing
// QuantileFromBuckets. Returns 0 when the family is absent or empty.
func (s *Scrape) Quantile(name string, q float64, labelPairs ...string) float64 {
	// Collect per-le totals: multiple children (e.g. status classes) of
	// one family merge by summing, which is exactly how histogram
	// aggregation works.
	byLE := map[float64]float64{}
	for _, sm := range s.Samples {
		if sm.Name != name+"_bucket" || !matchLabels(sm.Labels, labelPairs) {
			continue
		}
		le, err := parseLE(sm.Labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += sm.Value
	}
	var inf float64
	bounds := make([]float64, 0, len(byLE))
	for le, v := range byLE {
		if le == leInf {
			inf = v
			continue
		}
		bounds = append(bounds, le)
	}
	if len(bounds) == 0 {
		return 0
	}
	sort.Float64s(bounds)
	cum := make([]uint64, len(bounds)+1)
	for i, b := range bounds {
		cum[i] = uint64(byLE[b])
	}
	count := uint64(inf)
	cum[len(cum)-1] = count
	return QuantileFromBuckets(bounds, cum, count, q)
}

// leInf is the sentinel bound for the +Inf bucket in byLE maps.
var leInf = math.Inf(1)

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return leInf, nil
	}
	return strconv.ParseFloat(s, 64)
}

func matchLabels(have map[string]string, wantPairs []string) bool {
	for _, p := range wantPairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok || have[k] != v {
			return false
		}
	}
	return true
}

// Parse reads a Prometheus text-format exposition. It is strict about
// the shapes the registry renders (and Prometheus accepts): bad lines
// return an error rather than being skipped, so the golden-file test
// doubles as an exposition lint.
func Parse(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	out := &Scrape{Types: map[string]string{}}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, out); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return out, nil
}

func parseComment(line string, out *Scrape) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		out.Types[fields[2]] = fields[3]
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		var err error
		rest, err = parseLabels(rest[brace+1:], s.Labels)
		if err != nil {
			return s, err
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value on %q", line)
		}
		name, rest = rest[:sp], rest[sp:]
	}
	if !validName.MatchString(name) {
		return s, fmt.Errorf("bad metric name %q", name)
	}
	s.Name = name
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; the registry never writes one but
	// accept it for forward compatibility.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q on %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return leInf, nil
	case "-Inf":
		return -leInf, nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels consumes `name="value",...}` and returns the remainder of
// the line (the value part).
func parseLabels(rest string, into map[string]string) (string, error) {
	for {
		rest = strings.TrimLeft(rest, ", ")
		if rest == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("malformed label in %q", rest)
		}
		name := rest[:eq]
		if !validName.MatchString(name) && name != "le" {
			return "", fmt.Errorf("bad label name %q", name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return "", fmt.Errorf("unquoted label value in %q", rest)
		}
		val, rem, err := parseQuoted(rest)
		if err != nil {
			return "", err
		}
		into[name] = val
		rest = rem
	}
}

// parseQuoted consumes a leading double-quoted, backslash-escaped string
// and returns its unescaped value and the remainder.
func parseQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted string in %q", s)
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i+1])
			default:
				return "", "", fmt.Errorf("bad escape \\%c in %q", s[i+1], s)
			}
			i += 2
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string in %q", s)
}
