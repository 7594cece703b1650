package par

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// run calls Chunks and returns the chunks it made, sorted by lo, after
// checking that they cover every index of [0, n) exactly once.
func run(t *testing.T, n, workers int) [][2]int {
	t.Helper()
	var mu sync.Mutex
	var chunks [][2]int
	seen := make([]int, n)
	Chunks(n, workers, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		chunks = append(chunks, [2]int{lo, hi})
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("Chunks(%d, %d): index %d visited %d times", n, workers, i, c)
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
	return chunks
}

func TestChunks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		want       [][2]int
	}{
		{"empty", 0, 4, nil},
		{"fewer items than workers", 3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"not a multiple of workers", 10, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{"fewer chunks than workers", 5, 4, [][2]int{{0, 2}, {2, 4}, {4, 5}}},
		{"even split", 8, 2, [][2]int{{0, 4}, {4, 8}}},
		{"one worker", 5, 1, [][2]int{{0, 5}}},
	} {
		if got := run(t, tc.n, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Chunks(%d, %d) made %v, want %v", tc.name, tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestChunksDefaultWorkers: workers <= 0 means one chunk per GOMAXPROCS.
func TestChunksDefaultWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -1} {
		got := run(t, 4*procs, workers)
		if len(got) != procs {
			t.Fatalf("Chunks(%d, %d) made %d chunks, want GOMAXPROCS = %d", 4*procs, workers, len(got), procs)
		}
		for _, c := range got {
			if c[1]-c[0] != 4 {
				t.Fatalf("Chunks(%d, %d) made chunk %v, want length 4", 4*procs, workers, c)
			}
		}
	}
}

// goid returns the calling goroutine's ID from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestChunksSingleChunkInline: one chunk runs on the calling goroutine.
func TestChunksSingleChunkInline(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, workers int }{{1, 8}, {6, 1}} {
		var ran string
		Chunks(tc.n, tc.workers, func(lo, hi int) { ran = goid() })
		if ran != caller {
			t.Fatalf("Chunks(%d, %d): the single chunk ran on goroutine %s, caller is %s", tc.n, tc.workers, ran, caller)
		}
	}
}

// TestChunksConcurrent: several chunks each get a goroutine of their own
// and run at the same time — every chunk waits here until all have
// started, which only returns if none waits for another to finish.
func TestChunksConcurrent(t *testing.T) {
	const k = 3
	var started sync.WaitGroup
	started.Add(k)
	var mu sync.Mutex
	ids := map[string]bool{}
	var caller string
	done := make(chan struct{})
	go func() {
		defer close(done)
		caller = goid()
		Chunks(k, k, func(lo, hi int) {
			mu.Lock()
			ids[goid()] = true
			mu.Unlock()
			started.Done()
			started.Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Chunks did not run its chunks concurrently")
	}
	if len(ids) != k || ids[caller] {
		t.Fatalf("chunks ran on goroutines %v, want %d distinct ones besides the caller %s", ids, k, caller)
	}
}
