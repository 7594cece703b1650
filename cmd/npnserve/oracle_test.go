package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/npn"
	"repro/internal/replica"
	"repro/internal/tt"
	"repro/pkg/client"
)

// TestExhaustive4VarServedOracle checks partition equality through the
// served stack, exhaustively at n=4. All 65,536 four-variable functions go
// in through one /v2/insert batch on a durable server with per-append
// fsync. Then they are classified in a seeded order over the binary frame
// and over JSON on that server, on a second server recovered from its WAL,
// and on a third recovered after /v2/compact. Two replication followers
// are checked the same way: one that tails the inserting server's WAL
// segments (store.ApplyLogRecord) and one that bootstraps from the third
// server's snapshot (store.ApplySnapshot). Every answer must hit, its
// witness must replay, its (class, index) must be the one the insert
// returned, and the identities must form a bijection onto the 222
// npn.ExactCanon forms.
//
// The full MSV key is exact at n=4, so every chain here has length 1.
// Chain indices above 0 are covered by store.TestExhaustive4VarStoreOracle
// under a weaker key, not by this test.
func TestExhaustive4VarServedOracle(t *testing.T) {
	ctx := context.Background()
	const n = 4
	hexes := make([]string, 1<<(1<<n))
	canon := make(map[string]uint64, len(hexes))
	for x := range hexes {
		f := tt.FromWord(n, uint64(x))
		hexes[x] = f.Hex()
		canon[hexes[x]] = npn.ExactCanon(f).Word()
	}
	// fsyncInterval 0 = fsync every append, the kill-safe mode.
	cfg := config{arities: "4", dataDir: t.TempDir()}
	c, _ := startServer(t, cfg)

	ins, err := c.Insert(ctx, hexes)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Errors != 0 {
		t.Fatalf("insert reported %d item errors", ins.Errors)
	}
	inserted := make(map[string]string, len(hexes))
	fresh := 0
	for i, r := range ins.Results {
		if r.Function != hexes[i] {
			t.Fatalf("insert result %d echoes %q, want %q", i, r.Function, hexes[i])
		}
		inserted[r.Function] = fmt.Sprintf("%s:%d", r.Class, r.Index)
		if r.New {
			fresh++
		}
	}
	if fresh != 222 {
		t.Fatalf("insert created %d classes, want 222", fresh)
	}

	// Classify in a seeded order unlike the insertion order.
	order := make([]string, len(hexes))
	for i, x := range rand.New(rand.NewSource(451)).Perm(len(hexes)) {
		order[i] = hexes[x]
	}
	check := func(c *client.Client, stage string) {
		t.Helper()
		for _, tr := range []struct {
			name string
			c    *client.Client
		}{
			{"binary", c},
			{"JSON", client.New(c.Base(), client.WithJSONTransport())},
		} {
			res, err := tr.c.Classify(ctx, order)
			if err != nil {
				t.Fatalf("%s, %s: %v", stage, tr.name, err)
			}
			toCanon := map[string]uint64{}
			toIdent := map[uint64]string{}
			for i, it := range res.Results {
				if it.Function != order[i] {
					t.Fatalf("%s, %s: result %d echoes %q, want %q", stage, tr.name, i, it.Function, order[i])
				}
				if err := client.ReplayWitness(it); err != nil {
					t.Fatalf("%s, %s: %v", stage, tr.name, err)
				}
				id := fmt.Sprintf("%s:%d", it.Class, *it.Index)
				if id != inserted[it.Function] {
					t.Fatalf("%s, %s: %s is %s, insert said %s", stage, tr.name, it.Function, id, inserted[it.Function])
				}
				cf := canon[it.Function]
				if o, seen := toCanon[id]; seen && o != cf {
					t.Fatalf("%s, %s: %s holds two NPN classes", stage, tr.name, id)
				}
				if o, seen := toIdent[cf]; seen && o != id {
					t.Fatalf("%s, %s: one NPN class under %s and %s", stage, tr.name, o, id)
				}
				toCanon[id], toIdent[cf] = cf, id
			}
			if len(toCanon) != 222 || len(toIdent) != 222 {
				t.Fatalf("%s, %s: %d identities for %d canonical forms, want 222 each",
					stage, tr.name, len(toCanon), len(toIdent))
			}
		}
	}
	check(c, "inserting server")

	// followerOf syncs a fresh follower of primary once and serves it.
	// Local mode answers misses itself instead of asking the primary, so a
	// class the follower failed to apply fails the check.
	followerOf := func(primary *client.Client) *client.Client {
		t.Helper()
		fcfg := config{arities: "4", follow: primary.Base(), followMode: "local", followInterval: time.Hour}
		fol, err := buildFollower(fcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
		fopts, _, err := fcfg.handlerOptions(fol.Registry())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(replica.NewHandlerOpts(fol, fopts))
		t.Cleanup(srv.Close)
		return client.New(srv.URL)
	}
	check(followerOf(c), "follower tailing the WAL")

	// SIGKILL: the first server's registry is simply abandoned.
	c2, _ := startServer(t, cfg)
	check(c2, "restart from the WAL")

	if _, err := c2.Compact(ctx); err != nil {
		t.Fatalf("compact: %v", err)
	}
	c3, _ := startServer(t, cfg)
	check(c3, "restart after compaction")
	check(followerOf(c3), "follower bootstrapped from the snapshot")
}
