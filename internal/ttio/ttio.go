// Package ttio reads and writes truth-table workload files: one hexadecimal
// truth table per line, blank lines and '#' comments ignored — the format
// shared by the npngen, npnclassify and npnexact commands.
package ttio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/tt"
)

// Read parses all truth tables of arity n from r. Lines are 1-indexed in
// error messages. Reading stops at the first malformed line.
func Read(r io.Reader, n int) ([]*tt.TT, error) {
	if n <= 0 || n > tt.MaxVars {
		return nil, fmt.Errorf("ttio: arity %d out of range 1..%d", n, tt.MaxVars)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	var fs []*tt.TT
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f, err := tt.FromHex(n, s)
		if err != nil {
			return nil, fmt.Errorf("ttio: line %d: %w", line, err)
		}
		fs = append(fs, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ttio: %w", err)
	}
	return fs, nil
}

// Write emits the tables one hex string per line, with an optional comment
// header (written as "# ..." lines).
func Write(w io.Writer, fs []*tt.TT, header ...string) error {
	bw := bufio.NewWriter(w)
	for _, h := range header {
		if _, err := fmt.Fprintf(bw, "# %s\n", h); err != nil {
			return err
		}
	}
	for _, f := range fs {
		if _, err := fmt.Fprintln(bw, f.Hex()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
