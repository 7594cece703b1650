package federation

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tt"
)

// TestAutoCompactUnderInserts runs background compaction every few
// milliseconds while a goroutine keeps inserting into a durable registry
// with small segments. The manifest must come to list a snapshot with the
// folded segments gone, no pass may fail, stop must return, and a
// registry recovered from the directory must classify every acknowledged
// insert back to the (key, index) it was acknowledged with.
func TestAutoCompactUnderInserts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg := durableRegistry(t, dir, 6, 6)
	stop := reg.StartAutoCompact(2*time.Millisecond, func(err error) {
		t.Errorf("auto-compaction pass failed: %v", err)
	})

	var (
		mu    sync.Mutex
		acked []*tt.TT
		ids   []string
	)
	quit := make(chan struct{})
	inserted := make(chan struct{})
	go func() {
		defer close(inserted)
		rng := rand.New(rand.NewSource(65))
		for {
			select {
			case <-quit:
				return
			default:
			}
			fs := make([]*tt.TT, 8)
			for i := range fs {
				fs[i] = tt.Random(6, rng)
			}
			res, err := reg.InsertCtx(ctx, fs)
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			mu.Lock()
			for i, r := range res {
				if r.Index < 0 {
					t.Errorf("insert of %s refused", fs[i].Hex())
					continue
				}
				acked = append(acked, fs[i])
				ids = append(ids, keyIndex(r.Key, r.Index))
			}
			mu.Unlock()
		}
	}()

	// Wait for enough inserts to fill several 4 KiB segments, and for a
	// manifest whose segments 1 and 2 are folded into the snapshot.
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := reg.Manifest()
		if err != nil {
			t.Errorf("manifest: %v", err)
			break
		}
		mu.Lock()
		enough := len(acked) >= 1024
		mu.Unlock()
		if enough && len(m.Arities) == 1 {
			am := m.Arities[0]
			if am.HasSnapshot && len(am.Segments) > 0 && am.Segments[0].Seq > 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Errorf("no compacted manifest within the deadline: %+v", m)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(quit)
	<-inserted

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	fresh := durableRegistry(t, dir, 6, 6)
	defer fresh.Close()
	res, err := fresh.ClassifyCtx(ctx, acked)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Hit || keyIndex(r.Key, r.Index) != ids[i] {
			t.Fatalf("acknowledged insert %d (%s) recovered as hit=%v %s, want %s",
				i, acked[i].Hex(), r.Hit, keyIndex(r.Key, r.Index), ids[i])
		}
	}
	t.Logf("%d acknowledged inserts recovered through snapshot and log", len(acked))
}

// TestAutoCompactWaitsForRotation: background passes leave an arity whose
// log has not rotated alone. Three inserts into default-size segments
// under a 1 ms compaction interval must leave the manifest listing only
// segment 1 and no snapshot.
func TestAutoCompactWaitsForRotation(t *testing.T) {
	reg, err := New(6, 6, Options{Data: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rng := rand.New(rand.NewSource(67))
	fs := []*tt.TT{tt.Random(6, rng), tt.Random(6, rng), tt.Random(6, rng)}
	if _, err := reg.InsertCtx(context.Background(), fs); err != nil {
		t.Fatal(err)
	}
	stop := reg.StartAutoCompact(time.Millisecond, func(err error) {
		t.Errorf("auto-compaction pass failed: %v", err)
	})
	time.Sleep(50 * time.Millisecond)
	stop()

	m, err := reg.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Arities) != 1 || m.Arities[0].HasSnapshot || len(m.Arities[0].Segments) != 1 || m.Arities[0].Segments[0].Seq != 1 {
		t.Fatalf("manifest %+v, want segment 1 alone and no snapshot", m)
	}
}
