package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tt"
	"repro/pkg/client"
)

// runDeadline bounds one run, well inside the 180 s a run may take.
const runDeadline = 170 * time.Second

// setupBatch is the batch size of set-up inserts and of the post-restart
// recovery check.
const setupBatch = 256

// conns is the closed loop's width: two callers, each sending its next
// batch only once the previous reply has arrived.
const conns = 2

// runEndToEnd is the untraced run: set up npnserve setupReps times, drive
// the last one with the closed loop, check every answer, and read the
// process metrics.
func runEndToEnd(cfg config) (*result, error) {
	def := workloads[cfg.workload]
	in, err := generate(cfg.workload, cfg.seed, def.requests(cfg), cfg.small)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &procs{bin: cfg.npnserve, logPath: filepath.Join(dir, "npnserve.log")}
	defer p.killAll()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	r := newResult()
	dataDir := filepath.Join(dir, "data")
	var ident []identity
	if def.durable {
		if ident, err = seedData(ctx, p, in, dataDir); err != nil {
			return nil, err
		}
	}
	reps := def.setupReps
	if cfg.small {
		reps = 2
	}
	var srv *server
	var setups []time.Duration
	for k := 0; k < reps; k++ {
		s, id, d, err := setUp(ctx, p, def, in, dataDir, ident)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if k < reps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, ident = s, id
	}

	ck := newChecker(ident, cfg.corrupt)
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	loop := closedLoop(ctx, srv, in, ck)
	self1 := selfCPU()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}

	c, tr := newClient(srv.base)
	defer tr.CloseIdleConnections()
	if err := srv.checkRequestCounts(ctx, c); err != nil {
		r.problem("%v", err)
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if def.durable {
		if err := checkRecovered(ctx, p, in, dataDir, ident, loop, r); err != nil {
			return nil, err
		}
	}

	n := len(in.stream)
	fns := 0
	lat := make([]time.Duration, 0, n)
	for i, ok := range loop.ok {
		if ok {
			fns += len(in.stream[i])
			lat = append(lat, loop.lat[i])
		}
	}
	// A failed request misses every latency limit: it sorts last.
	for len(lat) < n {
		lat = append(lat, time.Duration(1<<62))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.attempted, r.failed = n, ck.nFailed
	for _, s := range ck.reasons {
		r.note("failed %s", s)
	}
	r.setN("fn_per_s", float64(fns)/loop.elapsed.Seconds(), n)
	r.setN("req_p50_ms", float64(quantile(lat, 0.50))/1e6, n)
	r.setN("setup_s", median(setups).Seconds(), len(setups))
	r.set("server_cpu_us_per_fn", ratio(us(cpu1-cpu0), float64(fns)))
	r.set("server_rss_mb", rss)
	r.note("window %.3fs, %d requests of %d functions on %d connections; closed-loop p99 %.4f ms (not bounded); "+
		"load generator %.3f us CPU per function", loop.elapsed.Seconds(), n, batchSize, conns,
		float64(quantile(lat, 0.99))/1e6, ratio(us(self1-self0), float64(fns)))
	return r, nil
}

// seedData fills dataDir with the set-up functions through a durable
// npnserve and stops it gracefully, returning the acknowledged
// identities. It is not part of setup_s.
func seedData(ctx context.Context, p *procs, in *inputs, dataDir string) ([]identity, error) {
	srv, err := p.start("-data", dataDir, "-fsync-interval", fsyncInterval.String())
	if err != nil {
		return nil, err
	}
	if err := srv.waitReady(60 * time.Second); err != nil {
		return nil, err
	}
	c, tr := newClient(srv.base)
	defer tr.CloseIdleConnections()
	ident, err := insertAll(ctx, srv, c, in.setup)
	if err != nil {
		return nil, err
	}
	return ident, srv.stop()
}

// setUp starts npnserve and brings it to the state the traffic expects:
// the set-up functions inserted (memory-only workloads) or recovered from
// dataDir (insert-durable), and on classify-hot the LRU warmed by one
// classify pass over the pool. It returns the server, the identities the
// set-up functions are served with, and the wall time from launch until
// the first measured request can be sent.
func setUp(ctx context.Context, p *procs, def workloadDef, in *inputs, dataDir string, ident []identity) (*server, []identity, time.Duration, error) {
	start := time.Now()
	var extra []string
	if def.durable {
		extra = []string{"-data", dataDir, "-fsync-interval", fsyncInterval.String()}
	}
	srv, err := p.start(extra...)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := srv.waitReady(60 * time.Second); err != nil {
		return nil, nil, 0, err
	}
	c, tr := newClient(srv.base)
	defer tr.CloseIdleConnections()
	if def.durable {
		// Recovery is lazy, one arity at a time: a classify of one
		// stored function per arity forces it before traffic arrives and
		// checks what came back.
		seen := map[int]bool{}
		var probe []query
		for i, f := range in.setup {
			if !seen[f.NumVars()] {
				seen[f.NumVars()] = true
				probe = append(probe, query{f: f, hex: f.Hex(), src: i})
			}
		}
		if err := classifyChecked(ctx, srv, c, newChecker(ident, false).forConn(false), probe); err != nil {
			return nil, nil, 0, fmt.Errorf("recovery probe: %w", err)
		}
	} else {
		if ident, err = insertAll(ctx, srv, c, in.setup); err != nil {
			return nil, nil, 0, err
		}
		cc := newChecker(ident, false).forConn(false)
		for _, b := range in.warm {
			if err := classifyChecked(ctx, srv, c, cc, b); err != nil {
				return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return srv, ident, time.Since(start), nil
}

// insertAll inserts fs in batches and returns their acknowledged
// identities.
func insertAll(ctx context.Context, srv *server, c *client.Client, fs []*tt.TT) ([]identity, error) {
	ident := make([]identity, len(fs))
	for lo := 0; lo < len(fs); lo += setupBatch {
		hi := min(lo+setupBatch, len(fs))
		hexes := make([]string, 0, hi-lo)
		for _, f := range fs[lo:hi] {
			hexes = append(hexes, f.Hex())
		}
		resp, err := srv.insert(ctx, c, hexes)
		if err != nil {
			return nil, fmt.Errorf("set-up insert: %w", err)
		}
		if len(resp.Results) != len(hexes) {
			return nil, fmt.Errorf("set-up insert: %d results for %d functions", len(resp.Results), len(hexes))
		}
		for j, it := range resp.Results {
			key, err := strconv.ParseUint(it.Class, 16, 64)
			if it.Error != nil || err != nil || it.Index < 0 {
				return nil, fmt.Errorf("set-up insert of %s: %+v", hexes[j], it)
			}
			ident[lo+j] = identity{key: key, index: it.Index}
		}
	}
	return ident, nil
}

// classifyChecked classifies one batch and checks every answer.
func classifyChecked(ctx context.Context, srv *server, c *client.Client, cc *connCheck, qs []query) error {
	hexes := make([]string, len(qs))
	for i, q := range qs {
		hexes[i] = q.hex
	}
	resp, err := srv.classify(ctx, c, hexes)
	return cc.classifyBatch(qs, resp, err)
}

// loopResult is the closed loop's record, per request in stream order.
type loopResult struct {
	lat     []time.Duration
	ok      []bool
	acked   [][]identity // insert-durable: the identity acknowledged per item
	elapsed time.Duration
}

// closedLoop sends the whole stream over conns connections, each sending
// its next batch only after the previous reply has arrived and been
// checked. Latency runs from send until the response is fully decoded.
func closedLoop(ctx context.Context, srv *server, in *inputs, ck *checker) loopResult {
	n := len(in.stream)
	res := loopResult{lat: make([]time.Duration, n), ok: make([]bool, n)}
	if in.insert {
		res.acked = make([][]identity, n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns; k++ {
		c, tr := newClient(srv.base)
		cc := ck.forConn(in.warm != nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				var err error
				if in.insert {
					resp, serr := srv.insert(ctx, c, in.hexes[i])
					res.lat[i] = time.Since(t0)
					res.acked[i], err = cc.insertBatch(in.stream[i], resp, serr)
				} else {
					resp, serr := srv.classify(ctx, c, in.hexes[i])
					res.lat[i] = time.Since(t0)
					err = cc.classifyBatch(in.stream[i], resp, serr)
				}
				if err != nil {
					ck.record(i, err)
				}
				res.ok[i] = err == nil
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// checkRecovered restarts the durable server and checks, untimed, that
// every acknowledged identity — the seeded set-up and every insert the
// loop acknowledged — is served identically after recovery.
func checkRecovered(ctx context.Context, p *procs, in *inputs, dataDir string, ident []identity, loop loopResult, r *result) error {
	var qs []query
	var want []identity
	for i, f := range in.setup {
		qs = append(qs, query{f: f, hex: f.Hex(), src: len(want)})
		want = append(want, ident[i])
	}
	for i, ok := range loop.ok {
		if !ok {
			continue
		}
		for j, q := range in.stream[i] {
			qs = append(qs, query{f: q.f, hex: q.hex, src: len(want)})
			want = append(want, loop.acked[i][j])
		}
	}
	srv, err := p.start("-data", dataDir, "-fsync-interval", fsyncInterval.String())
	if err != nil {
		return err
	}
	if err := srv.waitReady(60 * time.Second); err != nil {
		return err
	}
	c, tr := newClient(srv.base)
	defer tr.CloseIdleConnections()
	cc := newChecker(want, false).forConn(false)
	for lo := 0; lo < len(qs); lo += setupBatch {
		if err := classifyChecked(ctx, srv, c, cc, qs[lo:min(lo+setupBatch, len(qs))]); err != nil {
			r.problem("after restart: %v", err)
			break
		}
	}
	return srv.stop()
}
