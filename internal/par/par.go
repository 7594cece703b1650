// Package par holds the repository's one chunked parallel-for. Every
// batch stage it serves — core.ClassifyParallel's key hashing, the store's
// snapshot hashing, a service's worker pool and federation's arity
// groups — is embarrassingly parallel, so they all split the batch the
// same way: contiguous chunks, one goroutine each.
package par

import (
	"runtime"
	"sync"
)

// Chunks splits [0, n) into at most workers contiguous chunks of equal
// length (the last may be shorter) and calls fn(lo, hi) once per chunk,
// each on its own goroutine. workers <= 0 means GOMAXPROCS, and there are
// never more chunks than n. A single chunk runs on the calling goroutine.
// Chunks returns once every call has returned.
func Chunks(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
