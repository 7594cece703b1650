// Serve: the federated NPN classification service as a client sees it,
// driven through pkg/client — the official Go client of the /v2 API. The
// example starts an npnserve-style server in-process on a loopback port,
// then drives it over real HTTP with mixed-arity batches: it inserts a
// "cell library" spanning n = 4..7 in one request, classifies one batch
// of NPN disguises of all those cells — each function routed to its
// arity's store by the server — and certifies every answer by replaying
// the returned witness locally (client.ReplayWitness). It finishes by
// demonstrating the /v2 per-item error contract — a batch with one bad
// entry still answers the good ones — and printing the server's counters
// from its /metrics exposition (client.Metrics), totals summed over the
// arity label.
//
// Run with: go run ./examples/serve
// To drive an already-running server instead: go run ./examples/serve -addr http://host:port
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/federation"
	"repro/internal/npn"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/pkg/client"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running npnserve (empty = start one in-process)")
	flag.Parse()
	const lo, hi = 4, 10
	ctx := context.Background()

	baseURL := *addr
	if baseURL == "" {
		url, shutdown, err := startInProcess(lo, hi)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		baseURL = url
		fmt.Printf("started in-process npnserve at %s (arities %d..%d)\n\n", baseURL, lo, hi)
	}
	c := client.New(baseURL)

	rng := rand.New(rand.NewSource(2023))

	// A "cell library" of cells at several arities, inserted in ONE batch:
	// the server infers each cell's arity from its hex length and routes
	// it to that arity's store.
	var cells []*tt.TT
	var hexes []string
	for n := 4; n <= 7; n++ {
		for k := 0; k < 3; k++ {
			f := tt.Random(n, rng)
			cells = append(cells, f)
			hexes = append(hexes, f.Hex())
		}
	}
	ins, err := c.Insert(ctx, hexes)
	if err != nil {
		fatal(err)
	}
	created := 0
	for _, r := range ins.Results {
		if r.New {
			created++
		}
	}
	fmt.Printf("inserted %d cells (n=4..7, one mixed batch) -> %d classes created\n", len(cells), created)

	// ...queried with NPN disguises: permuted/negated pin assignments,
	// again all arities in one batch.
	disguises := make([]*tt.TT, 3*len(cells))
	query := make([]string, len(disguises))
	for i := range disguises {
		cell := cells[i%len(cells)]
		disguises[i] = npn.RandomTransform(cell.NumVars(), rng).Apply(cell)
		query[i] = disguises[i].Hex()
	}
	cls, err := c.Classify(ctx, query)
	if err != nil {
		fatal(err)
	}
	certified := 0
	for i, r := range cls.Results {
		if !r.Hit {
			fmt.Printf("query %s: MISS\n", r.Function)
			continue
		}
		// The client replays the wire witness locally: τ(rep) = query, so
		// the answer is certified without trusting the server's matcher.
		if err := client.ReplayWitness(r); err != nil {
			fatal(err)
		}
		certified++
		if i < 3 {
			fmt.Printf("query n=%d %s -> class %s rep %s (witness replayed)\n",
				disguises[i].NumVars(), r.Function, r.Class, r.Rep)
		}
	}
	fmt.Printf("...\nclassified %d disguises: %d hits, every witness replayed and certified locally\n\n",
		len(disguises), certified)

	// The /v2 contract answers a partially-bad batch per item: the bogus
	// entry carries {"error":{"code":"bad_hex"}}, the good one still hits.
	mixed, err := c.Classify(ctx, []string{query[0], "zzzz"})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("per-item errors: batch of 2 with one bad entry -> %d error item(s); good item hit=%v, bad item code=%q\n\n",
		mixed.Errors, mixed.Results[0].Hit, mixed.Results[1].Error.Code)

	sc, err := c.Metrics(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("federation metrics: %.0f classes total, %.0f lookups (%.0f hits, %.0f LRU), profile cache %.0f hits / %.0f misses\n",
		sc.Sum("npn_store_classes"), sc.Sum("npn_service_lookups_total"), sc.Sum("npn_service_hits_total"),
		sc.Sum("npn_service_cache_hits_total"), sc.Sum("npn_store_profile_cache_hits_total"),
		sc.Sum("npn_store_profile_cache_misses_total"))
	for n := lo; n <= hi; n++ {
		a := "arity=" + strconv.Itoa(n)
		batches := sc.Sum("npn_service_batch_duration_seconds_count", a)
		if batches == 0 {
			continue // no batch of this arity arrived yet
		}
		secs := sc.Sum("npn_service_batch_duration_seconds_sum", a)
		fmt.Printf("  n=%d: %.0f classes, %.0f lookups, %.1fµs/batch\n", n, sc.Sum("npn_store_classes", a),
			sc.Sum("npn_service_lookups_total", a), 1e6*secs/batches)
	}
}

// startInProcess runs the federated service on a loopback listener and
// returns its base URL and a graceful-shutdown function.
func startInProcess(lo, hi int) (string, func(), error) {
	reg, err := federation.New(lo, hi, federation.Options{
		Store: store.Options{Shards: 8},
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: federation.NewHandlerOpts(reg, federation.HandlerOptions{Metrics: obs.NewRegistry()})}
	go srv.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
