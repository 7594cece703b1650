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

// TestChunksLastChunkOnCaller: the last chunk always runs on the calling
// goroutine, whether or not a helper takes the others.
func TestChunksLastChunkOnCaller(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, workers int }{{2, 2}, {10, 4}, {64, 0}} {
		var mu sync.Mutex
		var last string
		Chunks(tc.n, tc.workers, func(lo, hi int) {
			if hi == tc.n {
				mu.Lock()
				last = goid()
				mu.Unlock()
			}
		})
		if last != caller {
			t.Fatalf("Chunks(%d, %d): the last chunk ran on goroutine %s, caller is %s", tc.n, tc.workers, last, caller)
		}
	}
}

// TestChunksStartsNoGoroutine: once the helpers exist, a call starts no
// goroutine — every chunk, on a helper or on the caller, sees the
// goroutine count the caller saw before the call. Nothing else starts a
// goroutine meanwhile, but one an earlier test left behind may still be
// exiting; a count below the caller's shows that, and the call is
// measured again.
func TestChunksStartsNoGoroutine(t *testing.T) {
	Chunks(2, 2, func(lo, hi int) {}) // start the helpers
	for _, tc := range []struct{ n, workers int }{{2, 2}, {10, 4}, {64, 0}} {
		for attempt := 1; ; attempt++ {
			before := runtime.NumGoroutine()
			var mu sync.Mutex
			var seen []int
			Chunks(tc.n, tc.workers, func(lo, hi int) {
				g := runtime.NumGoroutine()
				mu.Lock()
				seen = append(seen, g)
				mu.Unlock()
			})
			exited := false
			for _, g := range seen {
				if g > before {
					t.Fatalf("Chunks(%d, %d): a chunk saw %d goroutines, %d before the call", tc.n, tc.workers, g, before)
				}
				exited = exited || g < before
			}
			if !exited {
				break
			}
			if attempt == 10 {
				t.Fatalf("Chunks(%d, %d): the goroutine count kept falling during the call", tc.n, tc.workers)
			}
		}
	}
}

// TestChunksNestedWithHelpersBusy parks every helper on a chunk that
// blocks, then calls Chunks, with Chunks inside its chunks, from another
// goroutine: with no helper free the call must still complete, and
// releasing the parked chunks must leave no goroutine behind.
func TestChunksNestedWithHelpersBusy(t *testing.T) {
	Chunks(2, 2, func(lo, hi int) {}) // start the helpers
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	parked := make(chan struct{})
	var offers sync.WaitGroup
	// Offer chunk 0 of a two-chunk call until a helper takes it; a chunk
	// that runs on its caller returns at once, and the offer is repeated.
	for p := 0; p < runtime.GOMAXPROCS(0); {
		done := make(chan struct{})
		offers.Add(1)
		go func() {
			defer offers.Done()
			defer close(done)
			caller := goid()
			Chunks(2, 2, func(lo, hi int) {
				if lo == 0 && goid() != caller {
					parked <- struct{}{}
					<-release
				}
			})
		}()
		select {
		case <-parked:
			p++
		case <-done:
		}
	}

	const n = 12
	var mu sync.Mutex
	seen := make([]int, n*n)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		Chunks(n, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				Chunks(n, 3, func(lo2, hi2 int) {
					mu.Lock()
					defer mu.Unlock()
					for j := lo2; j < hi2; j++ {
						seen[i*n+j]++
					}
				})
			}
		})
	}()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Chunks did not return while every helper was busy")
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("nested Chunks: index %d visited %d times", k, c)
		}
	}

	close(release)
	offers.Wait()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the parked chunks were released, %d before", runtime.NumGoroutine(), base)
		}
	}
}
