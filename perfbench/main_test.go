package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// npnserveBin is npnserve built from this checkout for the tests.
var npnserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	npnserveBin = filepath.Join(dir, "npnserve")
	build := exec.Command("go", "build", "-o", npnserveBin, "repro/cmd/npnserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building npnserve:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runResult is the JSON result line of one run.
type runResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runTiny runs the benchmark on tiny inputs and returns its exit code,
// its standard output and its parsed result line.
func runTiny(t *testing.T, args ...string) (int, string, runResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-npnserve", npnserveBin, "-workdir", t.TempDir(), "-small", "-seconds", "1"}, args...)
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, out, stderr.String())
	}
	return code, out, res
}

func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				code, out, res := runTiny(t, "-workload", name, "-seed", "1", "-trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range append([]metricDef{{"fail_frac", "frac", ""}}, defs...) {
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `( |$)`)
					if !line.MatchString(out) {
						t.Errorf("%s is not printed with unit %s", d.name, d.unit)
					}
					if m, ok := res.Metrics[d.name]; d.name != "fail_frac" && (!ok || m.Unit != d.unit) {
						t.Errorf("result line: %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

func TestCorruptedWitnessFailsTheRun(t *testing.T) {
	code, out, res := runTiny(t, "-workload", "classify-hot", "-seed", "1", "-trace", "0", "-corrupt-witness")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("exit %d, result %+v: one corrupted witness must fail exactly one request\n%s", code, res, out)
	}
	if !strings.Contains(out, "does not verify") {
		t.Errorf("the failure reason does not name the witness:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^fail_frac +0\.0\d+ frac$`).MatchString(out) {
		t.Errorf("fail_frac does not count the failed request:\n%s", out)
	}
}

func TestSecondSeedRunsClean(t *testing.T) {
	for _, name := range []string{"classify-cold", "insert-durable"} {
		code, out, res := runTiny(t, "-workload", name, "-seed", "2", "-trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s seed 2: exit %d, result %+v\n%s", name, code, res, out)
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, err := generate("classify-cold", 7, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate("classify-cold", 7, 20, true)
	c, _ := generate("classify-cold", 8, 20, true)
	if fmt.Sprint(a.hexes) != fmt.Sprint(b.hexes) {
		t.Error("the same seed gave different requests")
	}
	if fmt.Sprint(a.hexes) == fmt.Sprint(c.hexes) {
		t.Error("different seeds gave the same requests")
	}
}

// TestBenchmarkJSONMatchesTheMetrics keeps BENCHMARK.json and the metric
// tables this command prints in step.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
