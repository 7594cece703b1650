// Package match decides exact NPN equivalence of truth tables by signature-
// pruned backtracking, and builds exact NPN classifications of function
// populations at arities where exhaustive canonicalization (internal/npn) is
// no longer practical. It plays the role of ABC's exact classification
// ("the exact version in [19]") that the paper uses as ground truth for
// n > 6.
//
// The matcher searches for a transform τ with τ(f) = g. Output phase is
// fixed first via satisfy counts (both phases are tried for balanced
// functions); the variable mapping is then found by backtracking over
// (variable, phase) assignments, pruned by 1-ary cofactor counts, influence
// equality, and pairwise 2-ary cofactor counts against already-assigned
// variables — all necessary conditions of PN equivalence, so pruning never
// loses a witness. A full truth-table comparison confirms every complete
// assignment, so the procedure is exact.
package match

import (
	"math"

	"repro/internal/npn"
	"repro/internal/sig"
	"repro/internal/tt"
)

// profile caches the per-function data the matcher prunes with.
type profile struct {
	f     *tt.TT
	inf   []int           // influence per variable
	cof1  [][2]int        // 1-ary cofactor counts per variable and value
	cof2  [][][4]int      // 2-ary counts: cof2[i][j][vi|vj<<1], i < j
	unate []sig.Unateness // per-variable unateness
	n     int
}

func newProfile(f *tt.TT, eng *sig.Engine) *profile {
	p := &profile{}
	fillProfile(p, f, eng)
	return p
}

// fillProfile (re)computes p for f, reusing p's slices when they already
// have the right arity — the allocation-free path behind QueryProfile.
func fillProfile(p *profile, f *tt.TT, eng *sig.Engine) {
	n := f.NumVars()
	p.f, p.n = f, n
	if len(p.inf) != n {
		p.inf = make([]int, n)
		p.cof1 = make([][2]int, n)
		p.unate = make([]sig.Unateness, n)
		p.cof2 = make([][][4]int, n)
		for i := 0; i < n; i++ {
			p.cof2[i] = make([][4]int, n)
		}
	}
	total := f.CountOnes()
	for i := 0; i < n; i++ {
		p.inf[i] = eng.Influence(f, i)
		c1 := f.CofactorCount(i, true)
		p.cof1[i] = [2]int{total - c1, c1}
		p.unate[i] = eng.Unateness(f, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c11 := f.CofactorCount2(i, true, j, true)
			c10 := f.CofactorCount2(i, true, j, false)
			c01 := f.CofactorCount2(i, false, j, true)
			c00 := total - c11 - c10 - c01
			p.cof2[i][j] = [4]int{c00, c10, c01, c11} // index vi | vj<<1
		}
	}
}

// cof2At returns the 2-ary count for (var i = vi, var j = vj), any order.
func (p *profile) cof2At(i, vi, j, vj int) int {
	if i > j {
		i, j, vi, vj = j, i, vj, vi
	}
	return p.cof2[i][j][vi|vj<<1]
}

// Matcher decides NPN equivalence for functions of a fixed arity, reusing
// signature scratch across calls. Not safe for concurrent use.
type Matcher struct {
	n   int
	eng *sig.Engine

	// Hot-path scratch, reused across calls so serving-path certification
	// allocates nothing in steady state: the backtracking assignment
	// arrays, a table for the final exact verification, and the profile +
	// wrapper behind QueryProfile.
	assignVar []int // g-var i -> f-var
	assignNeg []int // g-var i -> phase bit
	applyBuf  *tt.TT
	qprof     profile
	qwrap     Profile

	// Search-node accounting of the current match: nodes visited across
	// both output phases, and the cap past which the search gives up.
	nodes, budget int
}

// NewMatcher returns a matcher for n-variable functions.
func NewMatcher(n int) *Matcher {
	return &Matcher{
		n:         n,
		eng:       sig.NewEngine(n),
		assignVar: make([]int, n),
		assignNeg: make([]int, n),
	}
}

// Profile is an immutable precomputation of the signatures the matcher
// prunes with for one function in one output phase. Building it costs the
// per-function signature pass; once built it may be shared freely across
// goroutines and reused for any number of MatchProfiled calls.
type Profile struct {
	p    *profile
	ones int
}

// Fn returns the profiled function (the matcher's own view; callers must
// not modify it).
func (p *Profile) Fn() *tt.TT { return p.p.f }

// Profile computes the query-side matcher profile of g. The result is
// freshly allocated and may outlive the matcher; the serving hot path uses
// QueryProfile instead.
func (m *Matcher) Profile(g *tt.TT) *Profile {
	if g.NumVars() != m.n {
		panic("match: arity mismatch")
	}
	return &Profile{p: newProfile(g, m.eng), ones: g.CountOnes()}
}

// QueryProfile is Profile backed by the matcher's own scratch: it allocates
// nothing in steady state, but the returned Profile (and anything derived
// from it) is valid only until the next QueryProfile call on this matcher.
// It is the per-query profile of the serving lookup path, where one profile
// is built and immediately consumed by MatchProfiled over a collision chain.
//
//npn:noalloc
func (m *Matcher) QueryProfile(g *tt.TT) *Profile {
	if g.NumVars() != m.n {
		panic("match: arity mismatch")
	}
	fillProfile(&m.qprof, g, m.eng)
	m.qwrap = Profile{p: &m.qprof, ones: g.CountOnes()}
	return &m.qwrap
}

// RepProfile is an immutable precomputation of both output phases of a
// class representative: everything the matcher needs on the f-side of
// Equivalent(f, g) for any query g. Build once per stored representative
// (Matcher.RepProfile) and share across queries and goroutines — this is
// what a serving store memoizes so certification of a hit stops rebuilding
// the representative's signature profile per query.
type RepProfile struct {
	pos, neg *profile
	ones     int
	size     int
}

// RepProfile computes both phase profiles of f.
func (m *Matcher) RepProfile(f *tt.TT) *RepProfile {
	if f.NumVars() != m.n {
		panic("match: arity mismatch")
	}
	fc := f.Clone()
	return &RepProfile{
		pos:  newProfile(fc, m.eng),
		neg:  newProfile(fc.Not(), m.eng),
		ones: fc.CountOnes(),
		size: fc.NumBits(),
	}
}

// Fn returns the profiled representative (positive phase).
func (rp *RepProfile) Fn() *tt.TT { return rp.pos.f }

// MatchProfiled is Equivalent(rep, g) with all profile construction hoisted
// out: rp is the (typically memoized) representative profile and q the
// query profile, built once per query and reused across a collision chain.
// It returns a witness τ with τ(rep) = g on success.
func (m *Matcher) MatchProfiled(rp *RepProfile, q *Profile) (npn.Transform, bool) {
	tr, v := m.MatchBudget(rp, q, math.MaxInt)
	return tr, v == Matched
}

// Verdict is the outcome of a budgeted match.
type Verdict uint8

const (
	// Refuted: the search completed without a witness; not equivalent.
	Refuted Verdict = iota
	// Matched: a witness was found and verified; equivalent.
	Matched
	// Undecided: the search ran out of budget before deciding.
	Undecided
)

// MatchBudget is MatchProfiled with the backtracking search capped at
// budget nodes (calls of the search step, the final verification
// included) across both output phases. A direct hit visits n+1 nodes; a
// search that would need more than budget stops there and reports
// Undecided, so a caller can bound what one attempt costs and fall back to
// a path that does not need it. Matched and Refuted are exact.
//
//npn:noalloc
func (m *Matcher) MatchBudget(rp *RepProfile, q *Profile, budget int) (npn.Transform, Verdict) {
	if rp.pos.n != m.n || q.p.n != m.n {
		panic("match: arity mismatch")
	}
	m.nodes, m.budget = 0, budget
	if rp.ones == q.ones {
		if tr, ok := m.matchProfiles(rp.pos, q.p, false); ok {
			return tr, Matched
		}
	}
	if rp.size-rp.ones == q.ones && m.nodes <= m.budget {
		if tr, ok := m.matchProfiles(rp.neg, q.p, true); ok {
			return tr, Matched
		}
	}
	if m.nodes > m.budget {
		return npn.Transform{}, Undecided
	}
	return npn.Transform{}, Refuted
}

// Equivalent reports whether f and g are NPN equivalent and, if so, returns
// a witness transform τ with τ(f) = g.
func (m *Matcher) Equivalent(f, g *tt.TT) (npn.Transform, bool) {
	if f.NumVars() != m.n || g.NumVars() != m.n {
		panic("match: arity mismatch")
	}
	onesF, onesG := f.CountOnes(), g.CountOnes()
	size := f.NumBits()
	// Candidate output phases: τ may complement the output, so |f| must
	// equal |g| (no output negation) or 2^n - |g| (output negation).
	if onesF != onesG && size-onesF != onesG {
		return npn.Transform{}, false
	}
	m.nodes, m.budget = 0, math.MaxInt
	var pg *profile // g's profile serves both phases; built at most once
	if onesF == onesG {
		pg = newProfile(g, m.eng)
		if tr, ok := m.matchProfiles(newProfile(f, m.eng), pg, false); ok {
			return tr, true
		}
	}
	if size-onesF == onesG {
		if pg == nil {
			pg = newProfile(g, m.eng)
		}
		if tr, ok := m.matchProfiles(newProfile(f.Not(), m.eng), pg, true); ok {
			return tr, true
		}
	}
	return npn.Transform{}, false
}

// matchProfiles searches for a PN transform carrying pf.f into pg.f; outNeg
// records whether pf profiles the complemented phase of the original f, so
// the witness reported upward already contains the output negation.
func (m *Matcher) matchProfiles(pf, pg *profile, outNeg bool) (npn.Transform, bool) {
	if m.search(pf, pg, 0, 0) {
		n := m.n
		tr := npn.Identity(n)
		tr.OutNeg = outNeg
		for k := 0; k < n; k++ {
			tr.Perm[k] = uint8(m.assignVar[k])
			tr.NegMask |= uint32(m.assignNeg[k]) << uint(k)
		}
		return tr, true
	}
	return npn.Transform{}, false
}

// search backtracks over (variable, phase) assignments for position i, with
// used the bitmask of f-variables already taken. The assignment under
// construction lives in the matcher's scratch arrays, so a search allocates
// nothing. Every call is one node of the budget; past it the search
// unwinds without a witness.
func (m *Matcher) search(pf, pg *profile, i int, used uint32) bool {
	m.nodes++
	if m.nodes > m.budget {
		return false
	}
	n := m.n
	if i == n {
		// Final exact verification keeps the matcher sound even if a
		// pruning rule were too weak. pf.f already carries the candidate
		// output phase, so the check is a pure PN application.
		inner := npn.Identity(n)
		for k := 0; k < n; k++ {
			inner.Perm[k] = uint8(m.assignVar[k])
			inner.NegMask |= uint32(m.assignNeg[k]) << uint(k)
		}
		if m.applyBuf == nil {
			m.applyBuf = tt.New(n)
		}
		return inner.ApplyInto(m.applyBuf, pf.f).Equal(pg.f)
	}
	for j := 0; j < n; j++ {
		if used>>uint(j)&1 == 1 {
			continue
		}
		if pf.inf[j] != pg.inf[i] {
			continue
		}
		for b := 0; b < 2; b++ {
			// 1-ary: |g|x_i=v| must equal |fc|x_j=v⊕b|.
			if pg.cof1[i][0] != pf.cof1[j][b] || pg.cof1[i][1] != pf.cof1[j][1^b] {
				continue
			}
			// Unateness: g's variable i behaves like fc's variable j
			// with the candidate phase applied.
			want := pf.unate[j]
			if b == 1 {
				want = want.Negate()
			}
			if pg.unate[i] != want {
				continue
			}
			// 2-ary against every already-assigned variable.
			ok := true
			for prev := 0; prev < i && ok; prev++ {
				jp, bp := m.assignVar[prev], m.assignNeg[prev]
				for vi := 0; vi < 2 && ok; vi++ {
					for vp := 0; vp < 2; vp++ {
						if pg.cof2At(i, vi, prev, vp) != pf.cof2At(j, vi^b, jp, vp^bp) {
							ok = false
							break
						}
					}
				}
			}
			if !ok {
				continue
			}
			m.assignVar[i], m.assignNeg[i] = j, b
			if m.search(pf, pg, i+1, used|1<<uint(j)) {
				return true
			}
			if m.nodes > m.budget {
				return false
			}
		}
	}
	return false
}
