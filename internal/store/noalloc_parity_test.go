package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noallocGated is the canonical list of //npn:noalloc-annotated
// functions: the zero-alloc store path behind a cached Store.LookupCtx
// hit and an AddCtx of a stored class, on the hint route and the full-key route
// alike. The same list is guarded twice — dynamically by the
// testing.AllocsPerRun gates (TestLookupHitAllocs here drives the whole
// chain; sig's TestVectorAllocs and the api alloc gates cover their pieces
// directly) and
// statically by the noalloc analyzer in cmd/npnlint, which checks each
// annotation against `go build -gcflags=-m`. TestNoallocParity pins the
// annotation set in the source tree to this list so the static and
// dynamic guards cannot silently diverge: adding or dropping an
// annotation without updating the canonical list (and asking whether
// the alloc gates still exercise the new set) fails here.
var noallocGated = []string{
	"internal/core.(*Classifier).Hash",
	"internal/core.(*Classifier).emit",
	"internal/core.(*Classifier).measure",
	"internal/match.(*Matcher).MatchBudget",
	"internal/match.(*Matcher).QueryProfile",
	"internal/npn.(Transform).ApplyInto",
	"internal/service.(*lruCache).getBytes",
	"internal/service.appendCacheKey",
	"internal/sig.(*Engine).AppendOCV1",
	"internal/sig.(*Engine).AppendOCV2",
	"internal/sig.(*Engine).AppendOIV",
	"internal/sig.(*Engine).PointVectors",
	"internal/sig.(*Engine).pointPass",
	"internal/store.(*Store).LookupCtx",
	"internal/store.(*Store).certifyChain",
	"internal/store.(*Store).probeHint",
	"internal/store.(*shard).snapshot",
}

// TestNoallocParity diffs the //npn:noalloc annotations found in the
// module source against noallocGated, both ways.
func TestNoallocParity(t *testing.T) {
	root := moduleRootDir(t)
	got := scanNoallocAnnotations(t, root)
	want := append([]string(nil), noallocGated...)
	sort.Strings(got)
	sort.Strings(want)

	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("noallocGated lists %s but no //npn:noalloc annotation was found on it", w)
		}
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("%s is annotated //npn:noalloc but missing from the canonical noallocGated list; add it (and check the AllocsPerRun gates still cover it)", g)
		}
	}
}

// moduleRootDir walks up from the test's working directory to go.mod.
func moduleRootDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// scanNoallocAnnotations parses every non-test module source file
// (skipping testdata fixtures, which annotate deliberately-escaping
// functions) and returns "pkgdir.(Recv).Name" identifiers for each
// function carrying the //npn:noalloc directive in its doc comment.
func scanNoallocAnnotations(t *testing.T, root string) []string {
	t.Helper()
	const directive = "//npn:noalloc" // == noalloc.Directive; kept literal to avoid a lint dependency
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
					annotated = true
					break
				}
			}
			if !annotated {
				continue
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			id := filepath.ToSlash(rel) + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				id += "(" + types.ExprString(fd.Recv.List[0].Type) + ")."
			}
			out = append(out, id+fd.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}
