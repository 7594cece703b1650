package match_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/match"
	"repro/internal/npn"
	"repro/internal/tt"
)

// budget is the node budget the store's hint certification runs with.
const budget = 256

// TestMatchBudgetCorpusDisguises runs the budgeted match on seeded NPN
// disguises of the tier-1 circuit corpus at n = 6..8. A disguise is never
// refuted, every witness replays, and all but a tail of at most one in a
// thousand are decided within the budget; the tail are balanced, XOR-rich
// functions whose wrong output phase must be refuted before the right one
// is tried. An undecided attempt stops at budget+1 nodes.
func TestMatchBudgetCorpusDisguises(t *testing.T) {
	total, undecided := 0, 0
	for n := 6; n <= 8; n++ {
		fs := bench.Workload(n, bench.WorkloadOpts{Kind: bench.WorkloadCircuit, MaxPerNode: 8, Seed: 1, MaxFuncs: 4000})
		m := match.NewMatcher(n)
		rng := rand.New(rand.NewSource(int64(700 + n)))
		for _, f := range fs {
			g := npn.RandomTransform(n, rng).Apply(f)
			tr, v := m.MatchBudget(m.RepProfile(f), m.Profile(g), budget)
			total++
			switch v {
			case match.Refuted:
				t.Fatalf("n=%d: disguise %s of %s refuted", n, g.Hex(), f.Hex())
			case match.Undecided:
				undecided++
				if m.Nodes() != budget+1 {
					t.Fatalf("n=%d: undecided after %d nodes, want %d", n, m.Nodes(), budget+1)
				}
			case match.Matched:
				if m.Nodes() > budget {
					t.Fatalf("n=%d: matched after %d nodes, past the budget", n, m.Nodes())
				}
				if !tr.Apply(f).Equal(g) {
					t.Fatalf("n=%d: witness for %s does not replay", n, f.Hex())
				}
			}
		}
	}
	if undecided*1000 > total {
		t.Fatalf("%d of %d corpus disguises undecided within %d nodes, want at most 1 in 1000", undecided, total, budget)
	}
}

// TestMatchBudgetStopsOnCraftedPair: matching a member of the crafted
// family f = x0⊕x1⊕h(x2..x7) against an NPN disguise of it visits far more
// nodes than the budget, because x0 and x1 agree on every count the search
// prunes with. The budgeted match stops undecided after exactly budget+1
// nodes; unbudgeted, it finds the witness Equivalent finds.
func TestMatchBudgetStopsOnCraftedPair(t *testing.T) {
	const n = 8
	crafted := func(h *tt.TT) *tt.TT {
		return tt.FromFunc(n, func(x int) bool { return (x&1 == 1) != (x>>1&1 == 1) != h.Get(x>>2) })
	}
	rng := rand.New(rand.NewSource(710))
	f := crafted(tt.Random(6, rng))
	g := npn.RandomTransform(n, rng).Apply(f)
	m := match.NewMatcher(n)
	rp, q := m.RepProfile(f), m.Profile(g)
	if _, v := m.MatchBudget(rp, q, 1<<30); v != match.Matched || m.Nodes() <= budget {
		t.Fatalf("unbudgeted: verdict %d after %d nodes, want a match past %d nodes", v, m.Nodes(), budget)
	}
	if _, v := m.MatchBudget(rp, q, budget); v != match.Undecided || m.Nodes() != budget+1 {
		t.Fatalf("budgeted: verdict %d after %d nodes, want undecided after %d", v, m.Nodes(), budget+1)
	}
	if _, ok := m.Equivalent(f, g); !ok {
		t.Fatal("Equivalent disagrees with the unbudgeted match")
	}
}
