package service

import "testing"

// TestLRUUpdateInPlace: refreshing an existing key must not evict.
func TestLRUUpdateInPlace(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", Result{Index: 1})
	c.put("b", Result{Index: 2})
	c.put("a", Result{Index: 3}) // refresh, not insert
	if got := c.len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	if r, ok := c.getBytes([]byte("a")); !ok || r.Index != 3 {
		t.Fatalf("get(a) = %+v, %v; want refreshed value", r, ok)
	}
	if _, ok := c.getBytes([]byte("b")); !ok {
		t.Fatal("refresh evicted b")
	}
}
