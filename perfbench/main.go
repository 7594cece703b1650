// Command perfbench is the repository's end-to-end benchmark. It starts a
// freshly built npnserve with its shipped defaults, drives it over
// loopback with a closed loop of 16-function binary batches from two
// connections, checks every answer, and reports throughput, latency,
// set-up time and server cost. With -trace 1 it instead replays the same
// seeded request stream serially through every serving layer in turn —
// npnserve, pkg/client, net/http, the api handler, federation, service,
// store, core and the sig kernels — and reports each layer's self time,
// allocations and counters.
//
// Run it from the repository root; run.sh builds npnserve and this
// command into .bench_build/ first:
//
//	bash perfbench/run.sh --workload classify-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer was wrong or the run could not complete.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// config is the command line of one run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	npnserve string // the npnserve binary under test
	workdir  string // data directories, server logs and span files
	small    bool   // tiny inputs, for this package's own tests
	corrupt  bool   // flip one input negation in one served witness before checking it
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and prints its report; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs, measure := endToEnd, runEndToEnd
	if cfg.trace {
		defs, measure = perLayer, runLayers
	}
	r, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.report(stdout, cfg, defs) {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "classify-hot, classify-cold or insert-durable")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; fixes the request count of the run")
	fs.IntVar(&trace, "trace", 0, "1 replays the stream through every layer and reports the per-layer metrics")
	fs.StringVar(&cfg.npnserve, "npnserve", "", "the npnserve binary to benchmark")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for data, server logs and span files")
	fs.BoolVar(&cfg.small, "small", false, "tiny inputs, for tests")
	fs.BoolVar(&cfg.corrupt, "corrupt-witness", false, "flip one input negation in one served witness before checking it")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds %d: want at least 1", cfg.seconds)
	}
	if cfg.npnserve == "" || cfg.workdir == "" {
		return cfg, errors.New("-npnserve and -workdir are required (run.sh sets both)")
	}
	return cfg, nil
}
