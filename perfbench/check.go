package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/npn"
	"repro/internal/tt"
	"repro/pkg/client"
)

// identity is a class's served identity: MSV key and chain index.
type identity struct {
	key   uint64
	index int
}

func (id identity) String() string { return fmt.Sprintf("(%016x, %d)", id.key, id.index) }

// checker verifies answers against what the generator knows about each
// query. A disguise of a set-up function must hit with exactly the
// identity its source was acknowledged with (partition equality, checked
// by comparison alone); every hit's witness must replay; a random table
// may hit only with a witness that replays.
type checker struct {
	ident   []identity // acknowledged identity of inputs.setup[i]
	corrupt atomic.Bool

	mu      sync.Mutex
	reasons []string
	nFailed int
}

func newChecker(ident []identity, corrupt bool) *checker {
	ck := &checker{ident: ident}
	ck.corrupt.Store(corrupt)
	return ck
}

// record counts failed request req and keeps the first few reasons.
func (ck *checker) record(req int, err error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.nFailed++
	if len(ck.reasons) < 5 {
		ck.reasons = append(ck.reasons, fmt.Sprintf("request %d: %v", req, err))
	}
}

// expect checks the partition-equality part of an answer.
func (ck *checker) expect(q query, hit bool, got identity) error {
	if q.src < 0 {
		return nil
	}
	if !hit {
		return errors.New("miss on a disguise of a stored class")
	}
	if want := ck.ident[q.src]; got != want {
		return fmt.Errorf("served %v, its source was acknowledged as %v", got, want)
	}
	return nil
}

// replay checks τ(rep) = f for an in-process answer.
func replay(f, rep *tt.TT, w npn.Transform) error {
	if rep == nil || w.Validate() != nil || w.N != f.NumVars() || !w.Apply(rep).Equal(f) {
		return errors.New("witness does not replay")
	}
	return nil
}

// connCheck is one connection's view of the checker. On classify-hot the
// same pool functions come back again and again: memo holds the answer
// already fully verified for each, and a repeat must equal it exactly.
type connCheck struct {
	*checker
	memo map[string]api.ClassifyItem
}

func (ck *checker) forConn(memoize bool) *connCheck {
	cc := &connCheck{checker: ck}
	if memoize {
		cc.memo = map[string]api.ClassifyItem{}
	}
	return cc
}

// classifyBatch checks one classify response.
func (cc *connCheck) classifyBatch(qs []query, resp *api.ClassifyResponse, err error) error {
	if err != nil {
		return err
	}
	if len(resp.Results) != len(qs) {
		return fmt.Errorf("%d results for %d functions", len(resp.Results), len(qs))
	}
	for j, q := range qs {
		if err := cc.classifyItem(q, resp.Results[j]); err != nil {
			return fmt.Errorf("item %d (%s): %w", j, q.hex, err)
		}
	}
	return nil
}

func (cc *connCheck) classifyItem(q query, it api.ClassifyItem) error {
	if it.Error != nil {
		return fmt.Errorf("per-item error %v", it.Error)
	}
	if it.Function != q.hex {
		return fmt.Errorf("echoes function %q", it.Function)
	}
	key, err := strconv.ParseUint(it.Class, 16, 64)
	if err != nil {
		return fmt.Errorf("class %q: %v", it.Class, err)
	}
	id := identity{key: key, index: -1}
	if it.Index != nil {
		id.index = *it.Index
	}
	if err := cc.expect(q, it.Hit, id); err != nil {
		return err
	}
	if !it.Hit {
		return nil
	}
	if it.Witness == nil || it.Index == nil {
		return errors.New("hit without index or witness")
	}
	corrupted := false
	if cc.corrupt.Load() {
		if w, ok := corruptWitness(it); ok && cc.corrupt.CompareAndSwap(true, false) {
			it.Witness, corrupted = w, true
		}
	}
	if cc.memo != nil && !corrupted {
		if m, ok := cc.memo[q.hex]; ok && sameAnswer(m, it) {
			return nil
		}
	}
	if err := client.ReplayWitness(it); err != nil {
		return err
	}
	if cc.memo != nil {
		cc.memo[q.hex] = it
	}
	return nil
}

// sameAnswer reports whether two classify items carry the same answer.
func sameAnswer(a, b api.ClassifyItem) bool {
	if a.Class != b.Class || *a.Index != *b.Index || a.Rep != b.Rep ||
		a.Witness.NegMask != b.Witness.NegMask || a.Witness.OutNeg != b.Witness.OutNeg ||
		len(a.Witness.Perm) != len(b.Witness.Perm) {
		return false
	}
	for i := range a.Witness.Perm {
		if a.Witness.Perm[i] != b.Witness.Perm[i] {
			return false
		}
	}
	return true
}

// corruptWitness returns the item's witness with one input negation
// flipped, choosing an input whose flip makes the witness wrong; ok is
// false when every single flip still replays (the representative does not
// care about any one input's polarity).
func corruptWitness(it api.ClassifyItem) (*api.Witness, bool) {
	for i := range it.Witness.Perm {
		w := *it.Witness
		w.NegMask ^= 1 << i
		bad := it
		bad.Witness = &w
		if client.ReplayWitness(bad) != nil {
			return &w, true
		}
	}
	return nil, false
}

// insertBatch checks one insert response and returns the identities it
// acknowledged. A re-inserted disguise must report new=false with its
// source's identity.
func (cc *connCheck) insertBatch(qs []query, resp *api.InsertResponse, err error) ([]identity, error) {
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(qs) {
		return nil, fmt.Errorf("%d results for %d functions", len(resp.Results), len(qs))
	}
	ids := make([]identity, len(qs))
	for j, q := range qs {
		id, err := cc.insertItem(q, resp.Results[j])
		if err != nil {
			return nil, fmt.Errorf("item %d (%s): %w", j, q.hex, err)
		}
		ids[j] = id
	}
	return ids, nil
}

func (cc *connCheck) insertItem(q query, it api.InsertItem) (identity, error) {
	if it.Error != nil {
		return identity{}, fmt.Errorf("per-item error %v", it.Error)
	}
	if it.Function != q.hex {
		return identity{}, fmt.Errorf("echoes function %q", it.Function)
	}
	key, err := strconv.ParseUint(it.Class, 16, 64)
	if err != nil || it.Index < 0 {
		return identity{}, fmt.Errorf("bad identity (%q, %d)", it.Class, it.Index)
	}
	id := identity{key: key, index: it.Index}
	if q.src >= 0 && it.New {
		return id, errors.New("re-inserted disguise of a stored class reported new")
	}
	return id, cc.expect(q, true, id)
}
