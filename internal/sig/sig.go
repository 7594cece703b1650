// Package sig computes the NPN-invariant signature vectors of the paper
// "Rethinking NPN Classification from Face and Point Characteristics of
// Boolean Functions" (DATE 2023):
//
//   - OCV1, OCV2, OCVL — ordered cofactor vectors (face characteristic,
//     Definition 6): sorted multisets of cofactor satisfy counts.
//   - OIV — ordered influence vector (point-face characteristic,
//     Definition 7): sorted per-variable influences, using the paper's
//     integer convention inf(f,i) = |{X : f(X) ≠ f(X^i)}| / 2.
//   - OSV, OSV0, OSV1 — ordered sensitivity vectors (point characteristic,
//     Definition 8): sorted multisets of local sensitivities over all
//     minterms / 0-minterms / 1-minterms. Represented compactly as
//     histograms indexed by sensitivity value; Expand produces the sorted
//     multiset of the paper's tables.
//   - OSDV, OSDV0, OSDV1 — ordered sensitivity distance vectors
//     (Definitions 9–10): δ[i][j] counts unordered minterm pairs with equal
//     local sensitivity i at Hamming distance j.
//
// Equality of each vector is a necessary condition for NPN equivalence
// (Theorems 1–4), which is what makes them usable as classification keys.
//
// An Engine carries reusable scratch buffers so that classifying large
// function populations does not allocate per function. The point
// characteristics (OIV, OSV0/OSV1, OSDV0/OSDV1) all come from one fused
// pass over the variables; see PointVectors.
package sig

import (
	"math/bits"
	"sort"

	"repro/internal/spectra"
	"repro/internal/tt"
)

// Engine computes signature vectors for functions of a fixed arity n,
// reusing internal scratch space across calls. An Engine is not safe for
// concurrent use; create one per goroutine.
type Engine struct {
	n     int
	np    int    // sensitivity counter planes per word: bits.Len(n), at least 1
	valid uint64 // mask of a word's valid minterms (all ones for n ≥ 6)

	// The fused point pass's output: the influences in variable order and
	// the bit-sliced per-minterm sensitivity counters.
	inf []int
	cnt []uint64

	// PointVectors' engine-owned results, and the minterms of one
	// sensitivity class.
	pts        Points
	osv0, osv1 SenHist
	sdv0, sdv1 SDV
	members    []int32

	sen      []uint8               // per-minterm sensitivity, built lazily by SenProfile*
	pairCalc *spectra.PairDistCalc // built lazily by calc
	sortBuf  []int32               // lazily-grown buckets behind sortCounts
}

// NewEngine returns an Engine for n-variable functions.
func NewEngine(n int) *Engine {
	nw := 1
	if n > 6 {
		nw = 1 << (n - 6)
	}
	np := max(bits.Len(uint(n)), 1)
	return &Engine{
		n:       n,
		np:      np,
		valid:   tt.WordMask(n),
		inf:     make([]int, n),
		cnt:     make([]uint64, nw*np),
		pts:     Points{OIV: make([]int, 0, n)},
		osv0:    make(SenHist, n+1),
		osv1:    make(SenHist, n+1),
		sdv0:    newSDV(n),
		sdv1:    newSDV(n),
		members: make([]int32, 1<<n),
	}
}

// sortCounts sorts a vector of satisfy counts (non-negative, at most
// 2^n) in non-decreasing order: insertion sort for the short vectors
// (OIV, OCV1), counting sort over a bucket array bounded by the actual
// maximum for the longer ones (OCV2, OCVL) — both beat comparison
// sorting on these small-valued inputs, which the profiler shows on the
// MSV hot path. When the value range dwarfs the vector (large n, short
// vector) the bucket sweep would lose, so it falls back to sort.Ints.
func (e *Engine) sortCounts(v []int) {
	if len(v) <= 32 {
		for i := 1; i < len(v); i++ {
			x := v[i]
			j := i - 1
			for j >= 0 && v[j] > x {
				v[j+1] = v[j]
				j--
			}
			v[j+1] = x
		}
		return
	}
	max := 0
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	if max+1 > 32*len(v) {
		sort.Ints(v)
		return
	}
	if max+1 > len(e.sortBuf) {
		e.sortBuf = make([]int32, max+1)
	}
	buckets := e.sortBuf[:max+1]
	for i := range buckets {
		buckets[i] = 0
	}
	for _, x := range v {
		buckets[x]++
	}
	k := 0
	for val, c := range buckets {
		for ; c > 0; c-- {
			v[k] = val
			k++
		}
	}
}

func (e *Engine) check(f *tt.TT) {
	if f.NumVars() != e.n {
		panic("sig: function arity does not match engine")
	}
}

// SatCount returns the 0-ary cofactor signature |f|.
func SatCount(f *tt.TT) int { return f.CountOnes() }

// OCV1 returns the 1-ary ordered cofactor vector: the 2n cofactor satisfy
// counts |f|x_i=v| sorted in non-decreasing order.
func (e *Engine) OCV1(f *tt.TT) []int {
	return e.AppendOCV1(make([]int, 0, 2*e.n), f)
}

// AppendOCV1 appends the 1-ary ordered cofactor vector to v and returns
// the extended slice — the allocation-free form of OCV1 for callers that
// reuse a scratch slice across functions (the serving hot path). Only the
// appended tail is sorted; v's existing prefix is untouched.
//
//npn:noalloc
func (e *Engine) AppendOCV1(v []int, f *tt.TT) []int {
	e.check(f)
	lo := len(v)
	total := f.CountOnes()
	for i := 0; i < e.n; i++ {
		c1 := f.CofactorCount(i, true)
		v = append(v, total-c1, c1)
	}
	e.sortCounts(v[lo:])
	return v
}

// OCV2 returns the 2-ary ordered cofactor vector: the C(n,2)·4 two-variable
// cofactor satisfy counts sorted in non-decreasing order.
func (e *Engine) OCV2(f *tt.TT) []int {
	return e.AppendOCV2(make([]int, 0, e.n*(e.n-1)*2), f)
}

// AppendOCV2 appends the 2-ary ordered cofactor vector to v and returns
// the extended slice; see AppendOCV1 for the scratch-reuse contract.
//
//npn:noalloc
func (e *Engine) AppendOCV2(v []int, f *tt.TT) []int {
	e.check(f)
	lo := len(v)
	total := f.CountOnes()
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			c11 := f.CofactorCount2(i, true, j, true)
			c01 := f.CofactorCount2(i, false, j, true)
			c10 := f.CofactorCount2(i, true, j, false)
			c00 := total - c11 - c01 - c10
			v = append(v, c00, c01, c10, c11)
		}
	}
	e.sortCounts(v[lo:])
	return v
}

// OCVL returns the ℓ-ary ordered cofactor vector: satisfy counts of all
// C(n,ℓ)·2^ℓ cofactors with respect to ℓ-variable subsets, sorted.
func (e *Engine) OCVL(f *tt.TT, l int) []int {
	e.check(f)
	if l < 0 || l > e.n {
		panic("sig: OCVL order out of range")
	}
	if l == 0 {
		return []int{f.CountOnes()}
	}
	vars := make([]int, l)
	var v []int
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == l {
			for vals := 0; vals < 1<<l; vals++ {
				v = append(v, f.CofactorCountSet(vars, vals))
			}
			return
		}
		for i := start; i < e.n; i++ {
			vars[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	e.sortCounts(v)
	return v
}

// Influence returns the paper's integer influence of variable i:
// |{X : f(X) ≠ f(X^i)}| / 2 = 2^n · inf(f,i) / 2.
func (e *Engine) Influence(f *tt.TT, i int) int {
	e.check(f)
	words := f.Words()
	c := 0
	for wi := range words {
		c += bits.OnesCount64(e.diffWord(words, i, wi))
	}
	return c / 2
}

// OIV returns the ordered influence vector: the n integer influences sorted
// in non-decreasing order.
func (e *Engine) OIV(f *tt.TT) []int {
	return e.AppendOIV(make([]int, 0, e.n), f)
}

// AppendOIV appends the ordered influence vector to v and returns the
// extended slice; see AppendOCV1 for the scratch-reuse contract.
//
//npn:noalloc
func (e *Engine) AppendOIV(v []int, f *tt.TT) []int {
	e.check(f)
	e.pointPass(f, false)
	lo := len(v)
	v = append(v, e.inf...)
	e.sortCounts(v[lo:])
	return v
}

// TotalInfluence returns Σ_i inf(f, i) under the integer convention.
func (e *Engine) TotalInfluence(f *tt.TT) int {
	e.check(f)
	e.pointPass(f, false)
	s := 0
	for _, c := range e.inf {
		s += c
	}
	return s
}
