package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestParseBench parses a realistic go test -bench -benchmem transcript:
// noise lines are skipped, result lines keep their full sub-benchmark
// names, and the -benchmem columns are optional — recorded when present,
// zeros included, and omitted from the JSON when absent.
func TestParseBench(t *testing.T) {
	const transcript = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLookupCachedVsUncached/full-uncached-n6         	   16614	     15104 ns/op	    6819 B/op	      97 allocs/op
BenchmarkWALReplay/replay                                	      30	   9280500 ns/op	 2981437 B/op	  100357 allocs/op
BenchmarkBare                                            	 1000000	      1042 ns/op
BenchmarkTransportClassify/binary-n6-batch16             	   32944	     70210 ns/op	       149.0 req-B	       437.0 resp-B	   16494 B/op	     204 allocs/op
BenchmarkServingCached/n6                                	 2000000	       612 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	7.247s
`
	lines, err := parseBench(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 {
		t.Fatalf("parsed %d lines, want 5: %+v", len(lines), lines)
	}
	mem := func(l BenchLine) (float64, int64, bool) {
		if l.BytesPerOp == nil || l.AllocsPerOp == nil {
			return 0, 0, false
		}
		return *l.BytesPerOp, *l.AllocsPerOp, true
	}
	l := lines[0]
	if b, a, ok := mem(l); l.Name != "BenchmarkLookupCachedVsUncached/full-uncached-n6" ||
		l.Iterations != 16614 || l.NsPerOp != 15104 || !ok || b != 6819 || a != 97 {
		t.Fatalf("line 0 = %+v", l)
	}
	if _, a, ok := mem(lines[1]); lines[1].NsPerOp != 9280500 || !ok || a != 100357 {
		t.Fatalf("line 1 = %+v", lines[1])
	}
	bare := lines[2]
	if bare.Name != "BenchmarkBare" || bare.NsPerOp != 1042 || bare.BytesPerOp != nil || bare.AllocsPerOp != nil {
		t.Fatalf("line 2 = %+v", bare)
	}
	// Custom ReportMetric columns (req-B/resp-B) between ns/op and B/op
	// must not hide the -benchmem columns.
	tr := lines[3]
	if b, a, ok := mem(tr); tr.Name != "BenchmarkTransportClassify/binary-n6-batch16" ||
		tr.NsPerOp != 70210 || !ok || b != 16494 || a != 204 {
		t.Fatalf("line 3 = %+v", tr)
	}
	if b, a, ok := mem(lines[4]); !ok || b != 0 || a != 0 {
		t.Fatalf("line 4 = %+v", lines[4])
	}

	// A zero-allocation row keeps its zeros on the wire; a row without
	// -benchmem columns carries neither field.
	zero, err := json.Marshal(lines[4])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(zero), `"allocs_per_op":0`) || !strings.Contains(string(zero), `"bytes_per_op":0`) {
		t.Fatalf("zero-alloc row marshals as %s", zero)
	}
	plain, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "allocs_per_op") || strings.Contains(string(plain), "bytes_per_op") {
		t.Fatalf("row without -benchmem columns marshals as %s", plain)
	}
}

// TestReadDocRejectsForeignSchema: the trajectory tooling refuses files
// it does not understand instead of diffing garbage.
func TestReadDocRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"schema":"something/v9","serve":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDoc(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}
