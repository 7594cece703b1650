package service

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, mutex-guarded LRU map from packed truth-table
// bits to classification results. The store's representatives are never
// removed, so cached hits can live until evicted by capacity. The
// capacity is positive: a disabled cache is a nil *lruCache (New).
type lruCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val Result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element, capacity),
	}
}

// getBytes returns the result cached under the raw packed bytes key and
// bumps the entry to most recent. The m[string(key)] lookup compiles to a
// no-copy map probe, so a hit (or miss) allocates nothing.
//
//npn:noalloc
func (c *lruCache) getBytes(key []byte) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[string(key)]
	if !ok {
		return Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes an entry, evicting the least recent past cap.
func (c *lruCache) put(key string, val Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
