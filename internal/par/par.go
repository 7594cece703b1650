// Package par holds the repository's one chunked parallel-for. Every
// batch stage it serves — core.ClassifyParallel's key hashing, the store's
// snapshot hashing, a service's store work and federation's arity
// groups — is embarrassingly parallel, so they all split the batch the
// same way: contiguous chunks, run by the caller and by idle helpers.
//
// The helpers are one process-wide set of GOMAXPROCS goroutines, started
// by the first call that makes two or more chunks. Like what a sync.Pool
// keeps, they are there to be reused and never exit; idle, they are
// parked and use no CPU. No call starts a goroutine, so no chunk runs on
// a fresh stack that must first grow.
package par

import (
	"runtime"
	"sync"
)

// job is one chunk offered to the helpers. lo and hi travel in the value,
// not in a closure over the offering loop's variable, which every
// iteration shares.
type job struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	startHelpers sync.Once
	jobs         = make(chan job) // unbuffered: a send succeeds only to a parked helper
)

// Chunks splits [0, n) into at most workers contiguous chunks of equal
// length (the last may be shorter) and calls fn(lo, hi) once per chunk.
// workers <= 0 means GOMAXPROCS, and there are never more chunks than n.
// A helper takes a chunk only if one is idle; the caller runs every other
// chunk, the last always, and Chunks returns once every call has. So
// chunks must not wait for one another, and fn may call Chunks again: no
// caller ever waits for a helper to become free.
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
	startHelpers.Do(func() {
		for range runtime.GOMAXPROCS(0) {
			go func() {
				for j := range jobs {
					j.fn(j.lo, j.hi)
					j.wg.Done()
				}
			}()
		}
	})
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	lo := 0
	for ; lo+size < n; lo += size {
		wg.Add(1)
		select {
		case jobs <- job{fn, lo, lo + size, &wg}:
		default:
			fn(lo, lo+size)
			wg.Done()
		}
	}
	fn(lo, n)
	wg.Wait()
}
