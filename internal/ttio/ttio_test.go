package ttio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestRoundTrip(t *testing.T) {
	fs := gen.UniformRandom(6, 50, 1)
	var buf bytes.Buffer
	if err := Write(&buf, fs, "kind=test", "n=6"); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fs) {
		t.Fatalf("read %d, wrote %d", len(got), len(fs))
	}
	for i := range fs {
		if !got[i].Equal(fs[i]) {
			t.Fatalf("table %d changed in round trip", i)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n  e8\n#mid\nf0\n\n"
	fs, err := Read(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Hex() != "e8" || fs[1].Hex() != "f0" {
		t.Fatalf("parsed %v", fs)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("e8"), 0); err == nil {
		t.Error("arity 0 accepted")
	}
	if _, err := Read(strings.NewReader("zz"), 3); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := Read(strings.NewReader("e8\nfff\n"), 3); err == nil {
		t.Error("overlong table accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error missing line number: %v", err)
	}
}
