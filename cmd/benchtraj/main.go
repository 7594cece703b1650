// Command benchtraj maintains the serving-stack performance trajectory:
// it folds a `go test -bench` run and a short loadgen against a live
// npnserve into one schema-stable BENCH_serve.json, and diffs such files
// against the committed baseline so CI fails on a real regression.
//
// Modes:
//
//	benchtraj emit -bench file.txt -url http://host:port [-benchtime 1x]
//	               [-requests 200] [-batch 16]
//	    Parse the benchmark text output in file.txt, drive -requests
//	    classify batches of -batch functions against the server at -url,
//	    derive p50/p99 from the server's own npn_http_request_duration
//	    histogram (scraped via GET /metrics), and write the combined
//	    JSON document to stdout.
//
//	benchtraj check -baseline BENCH_serve.json -current new.json
//	                [-max-p99-regress 0.25] [-p99-floor 2ms]
//	    Compare the serve-path p99 of current against baseline: fail
//	    (exit 1) when current exceeds baseline by more than the relative
//	    bound AND by more than the absolute floor — the floor keeps
//	    sub-millisecond jitter on shared CI runners from tripping the
//	    gate. Benchmark ns/op deltas are reported but never gate.
//
// The emitted schema (bench_serve/v1) is stable: fields are only ever
// added, so dashboards and the check mode can read every historical file.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/tt"
	"repro/pkg/client"
)

// Schema names the BENCH_serve.json document layout.
const Schema = "bench_serve/v1"

// Doc is one trajectory measurement: the micro-benchmarks plus the
// serve-path latency quantiles of a real process.
type Doc struct {
	Schema     string      `json:"schema"`
	Date       string      `json:"date"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []BenchLine `json:"benchmarks"`
	Serve      ServeStats  `json:"serve"`
}

// BenchLine is one parsed `go test -bench` result line. BytesPerOp and
// AllocsPerOp are set exactly when the line carries the -benchmem
// columns, so a zero-allocation result is recorded as 0, not dropped.
type BenchLine struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
}

// ServeStats is the loadgen outcome: latency quantiles derived from the
// server's own request-duration histogram, not client-side clocks, so the
// numbers match what operators see on /metrics.
type ServeStats struct {
	Route     string  `json:"route"`
	Requests  int     `json:"requests"`
	BatchSize int     `json:"batch_size"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: benchtraj emit|check [flags]")
	}
	switch os.Args[1] {
	case "emit":
		emitMain(os.Args[2:])
	case "check":
		checkMain(os.Args[2:])
	default:
		fatalf("unknown mode %q (want emit or check)", os.Args[1])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtraj: "+format+"\n", args...)
	os.Exit(1)
}

func emitMain(args []string) {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	benchFile := fs.String("bench", "", "file holding `go test -bench` text output")
	url := fs.String("url", "", "base URL of a live npnserve with -metrics")
	benchtime := fs.String("benchtime", "", "benchtime the -bench file was produced with (recorded verbatim)")
	requests := fs.Int("requests", 200, "classify batches to send during loadgen")
	batch := fs.Int("batch", 16, "functions per classify batch")
	fs.Parse(args)
	if *benchFile == "" || *url == "" {
		fatalf("emit needs -bench and -url")
	}

	f, err := os.Open(*benchFile)
	if err != nil {
		fatalf("%v", err)
	}
	lines, err := parseBench(f)
	f.Close()
	if err != nil {
		fatalf("parsing %s: %v", *benchFile, err)
	}
	if len(lines) == 0 {
		fatalf("%s holds no benchmark result lines", *benchFile)
	}

	serve, err := loadgen(*url, *requests, *batch)
	if err != nil {
		fatalf("loadgen: %v", err)
	}

	doc := Doc{
		Schema:     Schema,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Benchtime:  *benchtime,
		Benchmarks: lines,
		Serve:      *serve,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
}

// benchLine matches `go test -bench -benchmem` result lines, e.g.
//
//	BenchmarkWALReplay/replay-10k-8  42  28812345 ns/op  1234 B/op  56 allocs/op
//
// Custom ReportMetric columns (the transport benchmark's req-B/resp-B
// payload sizes) may sit between ns/op and B/op and are skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ \S+-B)*(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parseBench(f io.Reader) ([]BenchLine, error) {
	var out []BenchLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op on %q", sc.Text())
		}
		l := BenchLine{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			v, _ := strconv.ParseFloat(m[4], 64)
			l.BytesPerOp = &v
		}
		if m[5] != "" {
			v, _ := strconv.ParseInt(m[5], 10, 64)
			l.AllocsPerOp = &v
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// loadgen drives classify traffic at the server and reads the latency
// quantiles back out of its request-duration histogram. The workload is
// deterministic: a seeded corpus is inserted first, then every batch
// mixes stored functions (hits) with fresh random ones (misses).
func loadgen(url string, requests, batch int) (*ServeStats, error) {
	const route = "/v2/classify"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(url)

	rng := rand.New(rand.NewSource(42))
	var corpus []string
	for n := 4; n <= 8; n++ {
		for k := 0; k < 8; k++ {
			corpus = append(corpus, tt.Random(n, rng).Hex())
		}
	}
	if _, err := c.Insert(ctx, corpus); err != nil {
		return nil, fmt.Errorf("seeding corpus: %w", err)
	}

	for i := 0; i < requests; i++ {
		fns := make([]string, batch)
		for j := range fns {
			if j%2 == 0 {
				fns[j] = corpus[rng.Intn(len(corpus))]
			} else {
				fns[j] = tt.Random(4+rng.Intn(5), rng).Hex()
			}
		}
		if _, err := c.Classify(ctx, fns); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}

	sc, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	labels := []string{"route=" + route, "method=POST", "code=2xx"}
	count, ok := sc.Value("npn_http_request_duration_seconds_count", labels...)
	if !ok || count < float64(requests) {
		return nil, fmt.Errorf("server histogram counts %v classify requests, loadgen sent %d", count, requests)
	}
	return &ServeStats{
		Route:     route,
		Requests:  requests,
		BatchSize: batch,
		P50Ms:     sc.Quantile("npn_http_request_duration_seconds", 0.50, labels...) * 1e3,
		P99Ms:     sc.Quantile("npn_http_request_duration_seconds", 0.99, labels...) * 1e3,
	}, nil
}

func checkMain(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	baselinePath := fs.String("baseline", "", "committed BENCH_serve.json to diff against")
	currentPath := fs.String("current", "", "freshly emitted BENCH_serve.json")
	maxRegress := fs.Float64("max-p99-regress", 0.25, "maximum tolerated relative p99 growth")
	floor := fs.Duration("p99-floor", 2*time.Millisecond, "absolute p99 growth below which the gate never trips")
	fs.Parse(args)
	if *baselinePath == "" || *currentPath == "" {
		fatalf("check needs -baseline and -current")
	}

	base, err := readDoc(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := readDoc(*currentPath)
	if err != nil {
		fatalf("%v", err)
	}

	// Benchmark deltas are informational: ns/op on a shared runner is too
	// noisy to gate, but the trajectory should be visible in the log.
	baseBench := map[string]BenchLine{}
	for _, l := range base.Benchmarks {
		baseBench[l.Name] = l
	}
	for _, l := range cur.Benchmarks {
		b, ok := baseBench[l.Name]
		if !ok || b.NsPerOp == 0 {
			fmt.Printf("new       %-60s %12.0f ns/op\n", l.Name, l.NsPerOp)
			continue
		}
		fmt.Printf("%+8.1f%%  %-60s %12.0f ns/op (baseline %.0f)\n",
			100*(l.NsPerOp-b.NsPerOp)/b.NsPerOp, l.Name, l.NsPerOp, b.NsPerOp)
	}

	growth := cur.Serve.P99Ms - base.Serve.P99Ms
	rel := 0.0
	if base.Serve.P99Ms > 0 {
		rel = growth / base.Serve.P99Ms
	}
	fmt.Printf("serve %s p50 %.3fms -> %.3fms, p99 %.3fms -> %.3fms (%+.1f%%)\n",
		cur.Serve.Route, base.Serve.P50Ms, cur.Serve.P50Ms, base.Serve.P99Ms, cur.Serve.P99Ms, 100*rel)
	floorMs := float64(*floor) / float64(time.Millisecond)
	if rel > *maxRegress && growth > floorMs {
		fatalf("serve p99 regressed %.1f%% (> %.0f%%) and %+.3fms (> %.3fms floor)",
			100*rel, 100**maxRegress, growth, floorMs)
	}
	fmt.Println("p99 gate: ok")
}

func readDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, Schema)
	}
	return &d, nil
}
