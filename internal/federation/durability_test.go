package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/npn"
	"repro/internal/tt"
	"repro/internal/wal"
)

// durableRegistry builds a registry persisting under dir.
func durableRegistry(t *testing.T, dir string, lo, hi int) *Registry {
	t.Helper()
	reg, err := New(lo, hi, Options{
		Data: dir,
		WAL:  wal.Options{SegmentBytes: 1 << 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestDurableRestart drives the federated durability lifecycle: insert a
// mixed-arity batch into a durable registry, close it (a graceful stop),
// reopen the same data directory and verify every arity's classes
// survive — then compact, restart again, and verify once more, so both
// the log-replay and the snapshot-plus-log recovery paths are exercised.
func TestDurableRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(60))
	var fs []*tt.TT
	for n := 4; n <= 7; n++ {
		for k := 0; k < 6; k++ {
			fs = append(fs, tt.Random(n, rng))
		}
	}

	reg := durableRegistry(t, dir, 4, 7)
	if !reg.Durable() {
		t.Fatal("registry with Data is not durable")
	}
	ins, err := reg.InsertCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	classOf := make([]string, len(fs))
	for i, r := range ins {
		if r.Index < 0 {
			t.Fatalf("insert %d refused (journal error?)", i)
		}
		classOf[i] = keyIndex(r.Key, r.Index)
	}
	if active := reg.Active(); len(active) != 4 {
		t.Fatalf("active arities %v, want 4..7", active)
	}
	for n := 4; n <= 7; n++ {
		w := reg.writer(n)
		if w == nil {
			t.Fatalf("arity %d has no WAL writer", n)
		}
		if ws := w.Stats(); ws.Segments == 0 || ws.Records == 0 || ws.Bytes == 0 {
			t.Fatalf("arity %d WAL shape %+v, want segments, records and bytes", n, ws)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func(reg *Registry, stage string) {
		t.Helper()
		queries := make([]*tt.TT, len(fs))
		for i, f := range fs {
			queries[i] = npn.RandomTransform(f.NumVars(), rng).Apply(f)
		}
		res, err := reg.ClassifyCtx(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.Hit {
				t.Fatalf("%s: class %d lost", stage, i)
			}
			if keyIndex(r.Key, r.Index) != classOf[i] {
				t.Fatalf("%s: class %d identity changed", stage, i)
			}
		}
	}

	reg2 := durableRegistry(t, dir, 4, 7)
	verify(reg2, "after restart")

	results, err := reg2.CompactAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("compacted %d arities, want 4", len(results))
	}
	folded := int64(0)
	for _, r := range results {
		folded += r.RecordsFolded
	}
	if folded == 0 {
		t.Fatal("compaction folded nothing")
	}
	verify(reg2, "after compaction")
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	reg3 := durableRegistry(t, dir, 4, 7)
	defer reg3.Close()
	verify(reg3, "after compaction and restart")
}

// TestDurableCrashRestart: closing nothing at all (the kill -9 shape,
// with per-append fsync) must also lose nothing.
func TestDurableCrashRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(61))
	var fs []*tt.TT
	for k := 0; k < 10; k++ {
		fs = append(fs, tt.Random(5, rng))
	}
	reg := durableRegistry(t, dir, 4, 6)
	if _, err := reg.InsertCtx(ctx, fs); err != nil {
		t.Fatal(err)
	}
	// No Close: the writer is abandoned mid-flight.

	reg2 := durableRegistry(t, dir, 4, 6)
	defer reg2.Close()
	res, err := reg2.ClassifyCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Hit {
			t.Fatalf("class %d lost across simulated crash", i)
		}
	}
}

// TestCompactAllRequiresDurability: CompactAll on a memory-only registry
// fails with ErrNotDurable.
func TestCompactAllRequiresDurability(t *testing.T) {
	reg, err := New(4, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CompactAll(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("CompactAll on memory-only registry: %v, want ErrNotDurable", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatalf("Close on memory-only registry: %v", err)
	}
}

func keyIndex(key uint64, index int) string {
	return fmt.Sprintf("%016x:%d", key, index)
}
