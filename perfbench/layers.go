package main

// The traced run replays the seeded request stream serially through one
// row per serving layer. Each row is a fresh instance of its layer with
// the same set-up, timed at that layer's public entry point only, under a
// span this package records. A layer's self time is its row minus the row
// below.
//
// npnserve runs a request's arity groups concurrently (federation) and
// each group's functions over GOMAXPROCS workers (service), so the rows
// from the service down replay each request in that same shape: a row's
// per-request time is wall time comparable with the row above, and its
// per-call spans give the per-function costs. Below the service the LRU
// and the in-batch dedup decide how many functions reach the store, so
// the store row's share of a request is scaled by the calls that actually
// reach it, as service.Stats reports.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/npn"
	"repro/internal/service"
	"repro/internal/sig"
	"repro/internal/store"
	"repro/internal/tt"
	"repro/internal/wal"
)

// tracedPerSecond × --seconds requests are replayed through every row.
const tracedPerSecond = 100

// spanRec is one recorded call: its name, start and end in ns since the
// run began, the index of the span that caused it (-1 for a root) and the
// request it served (-1 for set-up work).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanLog keeps a run's spans in memory until the run ends. It is safe
// for concurrent use.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func (l *spanLog) open(name string, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{Name: name, Start: int64(time.Since(l.t0)), Parent: parent, Req: req})
	return len(l.spans) - 1
}

// close ends span i and returns its duration.
func (l *spanLog) close(i int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[i]
	s.End = int64(time.Since(l.t0))
	return time.Duration(s.End - s.Start)
}

// shape runs call(slot, j) for every function j of one request in
// npnserve's shape: arity groups concurrently, each group's functions in
// contiguous chunks over GOMAXPROCS workers. slot identifies the
// (arity, worker) pair running the call, for per-goroutine engines. It
// returns once every call has.
func shape(fs []*tt.TT, call func(slot, j int)) {
	workers := runtime.GOMAXPROCS(0)
	byArity := map[int][]int{}
	for j, f := range fs {
		byArity[f.NumVars()] = append(byArity[f.NumVars()], j)
	}
	var wg sync.WaitGroup
	for n, idx := range byArity {
		chunk := (len(idx) + workers - 1) / workers
		for w, lo := 0, 0; lo < len(idx); w, lo = w+1, lo+chunk {
			part := idx[lo:min(lo+chunk, len(idx))]
			slot := n*workers + w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range part {
					call(slot, j)
				}
			}()
		}
	}
	wg.Wait()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one layer's record: timed calls into its entry point, their
// total duration, the heap allocations made meanwhile and failed calls.
// Rows that replay a request as several concurrent calls also sum each
// request's wall time.
type row struct {
	calls   int
	busy    time.Duration
	wall    time.Duration
	mallocs uint64
	fails   int
}

func (w *row) usPerCall() float64     { return ratio(us(w.busy), float64(w.calls)) }
func (w *row) allocsPerCall() float64 { return ratio(float64(w.mallocs), float64(w.calls)) }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// walRecord is one class-insert record of the log.
type walRecord struct {
	key uint64
	f   *tt.TT
}

// layerRun is the state of one traced run.
type layerRun struct {
	def    workloadDef
	in     *inputs
	fns    int      // functions in the replayed requests
	bodies [][]byte // each request as a pre-encoded binary frame
	dir    string
	spans  *spanLog
	res    *result
	failed []bool // per request: failed in some row
	rows   map[string]*row

	// The reference: the set-up functions inserted serially into one store
	// per arity. Every in-process row starts from its classes and is
	// checked against its identities.
	ck       *checker
	records  map[int][]walRecord // the reference classes per arity, in (key, chain index) order
	template string              // WAL directory holding the reference classes

	storeCalls int                 // calls the service row made into the store
	created    map[int][]walRecord // insert-durable: classes the store row created
}

// runLayers is the traced run.
func runLayers(cfg config) (*result, error) {
	def := workloads[cfg.workload]
	in, err := generate(cfg.workload, cfg.seed, def.requests(cfg), cfg.small)
	if err != nil {
		return nil, err
	}
	n := min(len(in.stream), tracedPerSecond*cfg.seconds)
	in.stream, in.hexes, in.fs = in.stream[:n], in.hexes[:n], in.fs[:n]
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &procs{bin: cfg.npnserve, logPath: filepath.Join(dir, "npnserve.log")}
	defer p.killAll()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	lr := &layerRun{
		def: def, in: in, dir: dir,
		spans:  &spanLog{t0: time.Now(), spans: make([]spanRec, 0, 80*n)},
		res:    newResult(),
		failed: make([]bool, n),
		rows:   map[string]*row{},
	}
	lr.bodies = make([][]byte, n)
	for i, fs := range in.fs {
		lr.fns += len(fs)
		lr.bodies[i] = api.EncodeBinaryRequest(fs, false)
	}
	steps := []func(context.Context) error{
		lr.reference, lr.walTemplate, lr.recoverTime,
		func(ctx context.Context) error { return lr.rowServer(ctx, p) },
		lr.rowClient, lr.rowHTTP, lr.rowHandler, lr.rowFederation, lr.rowService,
		lr.rowStore, lr.rowWAL, lr.rowCore, lr.rowSig,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	lr.derive()
	spanPath := filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")
	if err := lr.spans.write(spanPath); err != nil {
		return nil, err
	}
	lr.res.note("%d spans written to %s", len(lr.spans.spans), spanPath)
	lr.res.attempted = n
	for _, f := range lr.failed {
		if f {
			lr.res.failed++
		}
	}
	return lr.res, nil
}

// row returns the named row, creating it.
func (lr *layerRun) row(name string) *row {
	w := lr.rows[name]
	if w == nil {
		w = &row{}
		lr.rows[name] = w
	}
	return w
}

// fail records a failed call of request req in row name.
func (lr *layerRun) fail(name string, req int, err error) {
	lr.rows[name].fails++
	if req >= 0 {
		if !lr.failed[req] && len(lr.res.notes) < 5 {
			lr.res.note("%s row: request %d failed: %v", name, req, err)
		}
		lr.failed[req] = true
	} else {
		lr.res.problem("%s: %v", name, err)
	}
}

// arities returns the arities holding reference classes, ascending.
func (lr *layerRun) arities() []int {
	var ns []int
	for n := range lr.records {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// reference inserts the set-up functions serially into one store per
// arity. On the classify workloads these are the only writes, so they
// give the write-side store metrics.
func (lr *layerRun) reference(ctx context.Context) error {
	stores := map[int]*store.Store{}
	ident := make([]identity, len(lr.in.setup))
	type created struct {
		id identity
		f  *tt.TT
	}
	byArity := map[int][]created{}
	w := lr.row("setup.store.add")
	root := lr.spans.open("setup", -1, -1)
	for i, f := range lr.in.setup {
		n := f.NumVars()
		st := stores[n]
		if st == nil {
			st = store.New(n, store.Options{})
			stores[n] = st
		}
		sp := lr.spans.open("store.add", root, -1)
		key, idx, isNew := st.AddCtx(ctx, f)
		w.busy += lr.spans.close(sp)
		w.calls++
		ident[i] = identity{key: key, index: idx}
		if isNew {
			byArity[n] = append(byArity[n], created{ident[i], f})
		}
	}
	lr.spans.close(root)
	lr.ck = newChecker(ident, false)
	lr.records = map[int][]walRecord{}
	classes, chainMax := 0, 0
	for n, cs := range byArity {
		sort.Slice(cs, func(a, b int) bool {
			if cs[a].id.key != cs[b].id.key {
				return cs[a].id.key < cs[b].id.key
			}
			return cs[a].id.index < cs[b].id.index
		})
		for _, c := range cs {
			lr.records[n] = append(lr.records[n], walRecord{c.id.key, c.f})
		}
		classes += len(cs)
		if _, m := stores[n].ChainStats(); m > chainMax {
			chainMax = m
		}
	}
	if !lr.in.insert {
		lr.res.set("store.us_per_add", w.usPerCall())
		lr.res.set("store.new_class_ratio", ratio(float64(classes), float64(w.calls)))
		lr.res.set("store.chain_max", float64(chainMax))
	}
	return nil
}

// walMeasure is what one pass of WAL appends measured.
type walMeasure struct {
	records int
	busy    time.Duration
	fsyncs  []time.Duration
	bytes   int64
}

// appendWAL appends recs to a fresh log per arity under dir through
// wal.Writer.Append with the shipped group commit, then closes the logs.
func (lr *layerRun) appendWAL(dir, name string, recs map[int][]walRecord) (walMeasure, error) {
	var m walMeasure
	var mu sync.Mutex
	observe := func(d time.Duration) {
		mu.Lock()
		m.fsyncs = append(m.fsyncs, d)
		mu.Unlock()
	}
	var ns []int
	for n := range recs {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	w := lr.row(name)
	root := lr.spans.open(name, -1, -1)
	defer lr.spans.close(root)
	for _, n := range ns {
		adir := filepath.Join(dir, fmt.Sprintf("n%d", n))
		meta := store.New(n, store.Options{}).Fingerprint()
		wr, err := wal.OpenWriter(adir, wal.Options{FsyncEvery: fsyncInterval, Meta: meta, ObserveFsync: observe})
		if err != nil {
			return m, err
		}
		for _, r := range recs[n] {
			sp := lr.spans.open("wal.append", root, -1)
			err := wr.Append(r.key, r.f)
			m.busy += lr.spans.close(sp)
			if err != nil {
				wr.Close()
				return m, err
			}
			m.records++
		}
		if err := wr.Close(); err != nil {
			return m, err
		}
		segs, err := wal.ListSegments(adir)
		if err != nil {
			return m, err
		}
		for _, s := range segs {
			m.bytes += s.Size
		}
	}
	w.calls, w.busy = m.records, m.busy
	mu.Lock()
	defer mu.Unlock()
	return m, nil
}

func (lr *layerRun) setWAL(m walMeasure) {
	lr.res.set("wal.append_us_per_record", ratio(us(m.busy), float64(m.records)))
	lr.res.setN("wal.fsync_ms_p50", float64(median(m.fsyncs))/1e6, len(m.fsyncs))
	lr.res.set("wal.fsyncs", float64(len(m.fsyncs)))
	lr.res.set("wal.bytes_per_class", ratio(float64(m.bytes), float64(m.records)))
}

// walTemplate logs the reference classes into the template directory the
// durable rows recover from. On the classify workloads this set-up
// seeding is the only log traffic, so it gives the wal.* metrics.
func (lr *layerRun) walTemplate(ctx context.Context) error {
	lr.template = filepath.Join(lr.dir, "template")
	m, err := lr.appendWAL(lr.template, "setup.wal.append", lr.records)
	if err != nil {
		return err
	}
	if !lr.in.insert {
		lr.setWAL(m)
	}
	return nil
}

// recoverTime times store.Recover of the template, every arity, three
// times; wal.recover_s is the median.
func (lr *layerRun) recoverTime(ctx context.Context) error {
	var samples []time.Duration
	for k := 0; k < 3; k++ {
		var writers []*wal.Writer
		var stores []*store.Store
		root := lr.spans.open("wal.recover", -1, -1)
		for _, n := range lr.arities() {
			st, w, err := store.Recover(filepath.Join(lr.template, fmt.Sprintf("n%d", n)), n,
				store.Options{}, wal.Options{FsyncEvery: fsyncInterval})
			if err != nil {
				return err
			}
			writers, stores = append(writers, w), append(stores, st)
		}
		samples = append(samples, lr.spans.close(root))
		for i, n := range lr.arities() {
			if err := writers[i].Close(); err != nil {
				return err
			}
			if got, want := stores[i].Size(), len(lr.records[n]); got != want {
				lr.res.problem("recovered %d classes at n=%d, logged %d", got, n, want)
			}
		}
	}
	lr.res.setN("wal.recover_s", median(samples).Seconds(), len(samples))
	return nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// newRegistry builds a fresh federation with npnserve's defaults holding
// the reference classes: recovered from a copy of the template on the
// durable workload, published in chain order on the others, and on
// classify-hot warmed by one pass over the pool.
func (lr *layerRun) newRegistry(ctx context.Context, name string) (*federation.Registry, error) {
	o := federation.Options{Service: service.Options{CacheSize: service.DefaultCacheSize}}
	if lr.def.durable {
		data := filepath.Join(lr.dir, name)
		if err := copyDir(lr.template, data); err != nil {
			return nil, err
		}
		o.Data, o.WAL = data, wal.Options{FsyncEvery: fsyncInterval}
	}
	reg, err := federation.New(4, 10, o)
	if err != nil {
		return nil, err
	}
	for _, n := range lr.arities() {
		svc, err := reg.Service(n)
		if err != nil {
			return nil, err
		}
		if !lr.def.durable {
			svc.Store().ApplySnapshot(recordTables(lr.records[n]))
		}
	}
	for _, b := range lr.in.warm {
		if _, err := reg.ClassifyCtx(ctx, functionsOf(b)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

func recordTables(recs []walRecord) []*tt.TT {
	fs := make([]*tt.TT, len(recs))
	for i, r := range recs {
		fs[i] = r.f
	}
	return fs
}

// checkClassify checks one request's in-process classify answers.
func (lr *layerRun) checkClassify(qs []query, hit func(j int) (bool, identity, *tt.TT, npn.Transform)) error {
	for j, q := range qs {
		h, id, rep, w := hit(j)
		if err := lr.ck.expect(q, h, id); err != nil {
			return fmt.Errorf("item %d: %v", j, err)
		}
		if h {
			if err := replay(q.f, rep, w); err != nil {
				return fmt.Errorf("item %d: %v", j, err)
			}
		}
	}
	return nil
}

func (lr *layerRun) checkInsert(qs []query, out func(j int) (identity, bool)) error {
	for j, q := range qs {
		id, isNew := out(j)
		if id.index < 0 {
			return fmt.Errorf("item %d: insert refused", j)
		}
		if q.src >= 0 && isNew {
			return fmt.Errorf("item %d: re-inserted disguise of a stored class reported new", j)
		}
		if err := lr.ck.expect(q, true, id); err != nil {
			return fmt.Errorf("item %d: %v", j, err)
		}
	}
	return nil
}

// checkServiceResults checks a row that answers with service results.
func (lr *layerRun) checkServiceResults(i int, cls []service.Result, ins []service.InsertResult) error {
	qs := lr.in.stream[i]
	if lr.in.insert {
		if len(ins) != len(qs) {
			return fmt.Errorf("%d results for %d functions", len(ins), len(qs))
		}
		return lr.checkInsert(qs, func(j int) (identity, bool) {
			return identity{ins[j].Key, ins[j].Index}, ins[j].New
		})
	}
	if len(cls) != len(qs) {
		return fmt.Errorf("%d results for %d functions", len(cls), len(qs))
	}
	return lr.checkClassify(qs, func(j int) (bool, identity, *tt.TT, npn.Transform) {
		r := cls[j]
		return r.Hit, identity{r.Key, r.Index}, r.Rep, r.Witness
	})
}

// checkFrame checks a binary response frame.
func (lr *layerRun) checkFrame(i int, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	qs := lr.in.stream[i]
	if lr.in.insert {
		items, err := api.DecodeBinaryInsert(body)
		if err != nil {
			return err
		}
		if len(items) != len(qs) {
			return fmt.Errorf("%d results for %d functions", len(items), len(qs))
		}
		for _, it := range items {
			if it.Err != nil {
				return fmt.Errorf("per-item error %v", it.Err)
			}
		}
		return lr.checkInsert(qs, func(j int) (identity, bool) {
			return identity{items[j].Key, items[j].Index}, items[j].New
		})
	}
	items, err := api.DecodeBinaryClassify(body)
	if err != nil {
		return err
	}
	if len(items) != len(qs) {
		return fmt.Errorf("%d results for %d functions", len(items), len(qs))
	}
	for _, it := range items {
		if it.Err != nil {
			return fmt.Errorf("per-item error %v", it.Err)
		}
	}
	return lr.checkClassify(qs, func(j int) (bool, identity, *tt.TT, npn.Transform) {
		it := items[j]
		idx := it.Index
		if !it.Hit {
			idx = -1
		}
		return it.Hit, identity{it.Key, idx}, it.Rep, it.Witness
	})
}

// path is the route the workload's requests go to.
func (lr *layerRun) path() string {
	if lr.in.insert {
		return "/v2/insert"
	}
	return "/v2/classify"
}

// rowServer is row 1: npnserve over loopback through pkg/client, set up as
// in the untraced run. Every other request is sent without a span; the
// difference between the two halves is the tracing overhead.
func (lr *layerRun) rowServer(ctx context.Context, p *procs) error {
	dataDir := filepath.Join(lr.dir, "npnserve-data")
	var ident []identity
	var err error
	if lr.def.durable {
		if ident, err = seedData(ctx, p, lr.in, dataDir); err != nil {
			return err
		}
	}
	srv, ident, _, err := setUp(ctx, p, lr.def, lr.in, dataDir, ident)
	if err != nil {
		return err
	}
	c, tr := newClient(srv.base)
	defer tr.CloseIdleConnections()
	cc := newChecker(ident, false).forConn(lr.in.warm != nil)
	traced, untraced := lr.row("npnserve"), &row{}
	lat := make([]time.Duration, 0, len(lr.in.stream))
	cpu0 := selfCPU()
	for i := range lr.in.stream {
		w, sp := untraced, -1
		if i%2 == 1 {
			w, sp = traced, lr.spans.open("npnserve", -1, i)
		}
		t0 := time.Now()
		var err error
		var d time.Duration
		if lr.in.insert {
			resp, serr := srv.insert(ctx, c, lr.in.hexes[i])
			d = lr.end(sp, t0)
			_, err = cc.insertBatch(lr.in.stream[i], resp, serr)
		} else {
			resp, serr := srv.classify(ctx, c, lr.in.hexes[i])
			d = lr.end(sp, t0)
			err = cc.classifyBatch(lr.in.stream[i], resp, serr)
		}
		w.calls++
		w.busy += d
		lat = append(lat, d)
		if err != nil {
			lr.fail("npnserve", i, err)
		}
	}
	cpu := selfCPU() - cpu0
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	lr.res.setN("req_p99_ms", float64(quantile(lat, 0.99))/1e6, len(lat))
	lr.res.set("loadgen.cpu_us_per_fn", ratio(us(cpu), float64(lr.fns)))
	lr.res.set("trace.overhead_frac", ratio(traced.usPerCall(), untraced.usPerCall())-1)
	if err := srv.checkRequestCounts(ctx, c); err != nil {
		lr.res.problem("%v", err)
	}
	return srv.stop()
}

// end closes span sp, or without one measures from t0.
func (lr *layerRun) end(sp int, t0 time.Time) time.Duration {
	if sp < 0 {
		return time.Since(t0)
	}
	return lr.spans.close(sp)
}

// rowClient is row 2: pkg/client against an in-process httptest server
// running federation.NewHandler.
func (lr *layerRun) rowClient(ctx context.Context) error {
	reg, err := lr.newRegistry(ctx, "client")
	if err != nil {
		return err
	}
	defer reg.Close()
	ts := httptest.NewServer(federation.NewHandler(reg))
	defer ts.Close()
	c, tr := newClient(ts.URL)
	defer tr.CloseIdleConnections()
	n := len(lr.in.stream)
	cls := make([]*api.ClassifyResponse, n)
	ins := make([]*api.InsertResponse, n)
	errs := make([]error, n)
	w := lr.row("client")
	m0 := mallocs()
	for i := range lr.in.stream {
		sp := lr.spans.open("client", -1, i)
		if lr.in.insert {
			ins[i], errs[i] = c.Insert(ctx, lr.in.hexes[i])
		} else {
			cls[i], errs[i] = c.Classify(ctx, lr.in.hexes[i])
		}
		w.busy += lr.spans.close(sp)
		w.calls++
	}
	w.mallocs = mallocs() - m0
	cc := lr.ck.forConn(false)
	for i, qs := range lr.in.stream {
		err := errs[i]
		if lr.in.insert {
			_, err = cc.insertBatch(qs, ins[i], err)
		} else {
			err = cc.classifyBatch(qs, cls[i], err)
		}
		if err != nil {
			lr.fail("client", i, err)
		}
	}
	return nil
}

// rowHTTP is row 3: a raw net/http POST of the pre-encoded binary body to
// the same kind of httptest server.
func (lr *layerRun) rowHTTP(ctx context.Context) error {
	reg, err := lr.newRegistry(ctx, "http")
	if err != nil {
		return err
	}
	defer reg.Close()
	ts := httptest.NewServer(federation.NewHandler(reg))
	defer ts.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	n := len(lr.in.stream)
	bodies := make([][]byte, n)
	status := make([]int, n)
	errs := make([]error, n)
	url := ts.URL + lr.path()
	w := lr.row("http")
	m0 := mallocs()
	for i := range lr.in.stream {
		sp := lr.spans.open("http", -1, i)
		bodies[i], status[i], errs[i] = post(ctx, hc, url, lr.bodies[i])
		w.busy += lr.spans.close(sp)
		w.calls++
	}
	w.mallocs = mallocs() - m0
	respBytes := 0
	for i := range lr.in.stream {
		respBytes += len(bodies[i])
		err := errs[i]
		if err == nil {
			err = lr.checkFrame(i, status[i], bodies[i])
		}
		if err != nil {
			lr.fail("http", i, err)
		}
	}
	lr.res.set("api.resp_bytes_per_fn", ratio(float64(respBytes), float64(lr.fns)))
	return nil
}

// post sends one binary frame and reads the whole response.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", api.BinaryContentType)
	req.Header.Set("Accept", api.BinaryContentType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// rowHandler is row 4: the api handler federation.NewHandler mounts,
// called directly with an httptest.ResponseRecorder.
func (lr *layerRun) rowHandler(ctx context.Context) error {
	reg, err := lr.newRegistry(ctx, "api")
	if err != nil {
		return err
	}
	defer reg.Close()
	h := federation.NewHandler(reg)
	n := len(lr.in.stream)
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, lr.path(), bytes.NewReader(lr.bodies[i])).WithContext(ctx)
		reqs[i].Header.Set("Content-Type", api.BinaryContentType)
		reqs[i].Header.Set("Accept", api.BinaryContentType)
		recs[i] = httptest.NewRecorder()
	}
	w := lr.row("api")
	m0 := mallocs()
	for i := range reqs {
		sp := lr.spans.open("api", -1, i)
		h.ServeHTTP(recs[i], reqs[i])
		w.busy += lr.spans.close(sp)
		w.calls++
	}
	w.mallocs = mallocs() - m0
	for i, rec := range recs {
		if err := lr.checkFrame(i, rec.Code, rec.Body.Bytes()); err != nil {
			lr.fail("api", i, err)
		}
	}
	return nil
}

// rowFederation is row 5: Registry.ClassifyCtx / InsertCtx.
func (lr *layerRun) rowFederation(ctx context.Context) error {
	reg, err := lr.newRegistry(ctx, "federation")
	if err != nil {
		return err
	}
	defer reg.Close()
	n := len(lr.in.stream)
	cls := make([][]service.Result, n)
	ins := make([][]service.InsertResult, n)
	errs := make([]error, n)
	w := lr.row("federation")
	m0 := mallocs()
	for i, fs := range lr.in.fs {
		sp := lr.spans.open("federation", -1, i)
		if lr.in.insert {
			ins[i], errs[i] = reg.InsertCtx(ctx, fs)
		} else {
			cls[i], errs[i] = reg.ClassifyCtx(ctx, fs)
		}
		w.busy += lr.spans.close(sp)
		w.calls++
	}
	w.mallocs = mallocs() - m0
	for i := range lr.in.stream {
		err := errs[i]
		if err == nil {
			err = lr.checkServiceResults(i, cls[i], ins[i])
		}
		if err != nil {
			lr.fail("federation", i, err)
		}
	}
	return nil
}

// rowService is row 6: each request's arity groups sent to their
// arities' Service.ClassifyCtx / InsertCtx, concurrently when there are
// several, as the federation does.
func (lr *layerRun) rowService(ctx context.Context) error {
	reg, err := lr.newRegistry(ctx, "service")
	if err != nil {
		return err
	}
	defer reg.Close()
	type group struct {
		svc *service.Service
		fs  []*tt.TT
		idx []int
	}
	n := len(lr.in.stream)
	groups := make([][]group, n)
	cls := make([][]service.Result, n)
	ins := make([][]service.InsertResult, n)
	svcs := map[int]*service.Service{}
	for i, fs := range lr.in.fs {
		byN := map[int]int{}
		for j, f := range fs {
			a := f.NumVars()
			g, ok := byN[a]
			if !ok {
				svc, err := reg.Service(a)
				if err != nil {
					return err
				}
				svcs[a] = svc
				g = len(groups[i])
				byN[a] = g
				groups[i] = append(groups[i], group{svc: svc})
			}
			groups[i][g].fs = append(groups[i][g].fs, f)
			groups[i][g].idx = append(groups[i][g].idx, j)
		}
		cls[i] = make([]service.Result, len(fs))
		ins[i] = make([]service.InsertResult, len(fs))
	}
	before := sumStats(svcs)
	w := lr.row("service")
	m0 := mallocs()
	for i := range groups {
		root := lr.spans.open("service", -1, i)
		call := func(g group) {
			sp := lr.spans.open("service.batch", root, i)
			if lr.in.insert {
				for j, r := range g.svc.InsertCtx(ctx, g.fs) {
					ins[i][g.idx[j]] = r
				}
			} else {
				for j, r := range g.svc.ClassifyCtx(ctx, g.fs) {
					cls[i][g.idx[j]] = r
				}
			}
			lr.spans.close(sp)
		}
		if len(groups[i]) == 1 {
			call(groups[i][0])
		} else {
			var wg sync.WaitGroup
			for _, g := range groups[i] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					call(g)
				}()
			}
			wg.Wait()
		}
		w.busy += lr.spans.close(root)
		w.calls++
	}
	w.mallocs = mallocs() - m0
	after := sumStats(svcs)
	lookups, deduped, cacheHits := after.Lookups-before.Lookups, after.Deduped-before.Deduped, after.CacheHits-before.CacheHits
	inserts := after.Inserts - before.Inserts
	if lr.in.insert {
		lr.storeCalls = int(inserts - deduped)
		lr.res.set("service.dedup_ratio", ratio(float64(deduped), float64(inserts)))
		lr.res.set("service.lru_hit_ratio", 0)
	} else {
		lr.storeCalls = int(lookups - deduped - cacheHits)
		lr.res.set("service.dedup_ratio", ratio(float64(deduped), float64(lookups)))
		lr.res.set("service.lru_hit_ratio", ratio(float64(cacheHits), float64(lookups-deduped)))
	}
	for i := range lr.in.stream {
		var err error
		if lr.in.insert {
			err = lr.checkServiceResults(i, nil, ins[i])
		} else {
			err = lr.checkServiceResults(i, cls[i], nil)
		}
		if err != nil {
			lr.fail("service", i, err)
		}
	}
	return nil
}

// sumStats sums the counters the ledger reads over services.
func sumStats(svcs map[int]*service.Service) service.Stats {
	var t service.Stats
	for _, s := range svcs {
		st := s.Stats()
		t.Lookups += st.Lookups
		t.Deduped += st.Deduped
		t.CacheHits += st.CacheHits
		t.Inserts += st.Inserts
	}
	return t
}

// shaped replays every request through call in npnserve's shape (see
// shape) under a root span per request and a span per call, and records
// the calls, their time and each request's wall time in row name.
func (lr *layerRun) shaped(name, callName string, call func(slot, i, j int)) *row {
	w := lr.row(name)
	for i, fs := range lr.in.fs {
		root := lr.spans.open(name, -1, i)
		var busy atomic.Int64
		shape(fs, func(slot, j int) {
			sp := lr.spans.open(callName, root, i)
			call(slot, i, j)
			busy.Add(int64(lr.spans.close(sp)))
		})
		w.wall += lr.spans.close(root)
		w.busy += time.Duration(busy.Load())
		w.calls += len(fs)
	}
	return w
}

// memStores returns one store per arity holding the reference classes.
func (lr *layerRun) memStores() map[int]*store.Store {
	stores := map[int]*store.Store{}
	for _, n := range lr.arities() {
		st := store.New(n, store.Options{})
		st.ApplySnapshot(recordTables(lr.records[n]))
		stores[n] = st
	}
	return stores
}

// rowStore is row 7: Store.LookupCtx per function on the classify
// workloads; on insert-durable Store.AddCtx per function against stores
// recovered from the template (so every new class is journaled), plus a
// lookup pass over the same functions on stores that do not hold them yet.
func (lr *layerRun) rowStore(ctx context.Context) error {
	if err := lr.storeLookups(ctx); err != nil {
		return err
	}
	if !lr.in.insert {
		return nil
	}
	return lr.storeAdds(ctx)
}

func (lr *layerRun) storeLookups(ctx context.Context) error {
	stores := lr.memStores()
	type answer struct {
		hit bool
		id  identity
		rep *tt.TT
		w   npn.Transform
	}
	out := make([][]answer, len(lr.in.fs))
	for i, fs := range lr.in.fs {
		out[i] = make([]answer, len(fs))
	}
	var ph0, pm0 int64
	for _, st := range stores {
		h, m, _ := st.ProfileCacheStats()
		ph0, pm0 = ph0+h, pm0+m
	}
	m0 := mallocs()
	w := lr.shaped("store.lookup", "store.lookup", func(_, i, j int) {
		f := lr.in.fs[i][j]
		rep, key, idx, wit, ok := stores[f.NumVars()].LookupCtx(ctx, f)
		out[i][j] = answer{ok, identity{key, idx}, rep, wit}
	})
	w.mallocs = mallocs() - m0
	var ph1, pm1 int64
	for _, st := range stores {
		h, m, _ := st.ProfileCacheStats()
		ph1, pm1 = ph1+h, pm1+m
	}
	lr.res.set("store.profile_hit_ratio", ratio(float64(ph1-ph0), float64(ph1-ph0+pm1-pm0)))
	lr.res.set("store.us_per_lookup", w.usPerCall())
	lr.res.set("store.allocs_per_lookup", w.allocsPerCall())
	if lr.in.insert {
		return nil // the lookups precede the inserts: nothing to check against
	}
	for i, qs := range lr.in.stream {
		err := lr.checkClassify(qs, func(j int) (bool, identity, *tt.TT, npn.Transform) {
			a := out[i][j]
			return a.hit, a.id, a.rep, a.w
		})
		if err != nil {
			lr.fail("store.lookup", i, err)
		}
	}
	return nil
}

func (lr *layerRun) storeAdds(ctx context.Context) error {
	data := filepath.Join(lr.dir, "store")
	if err := copyDir(lr.template, data); err != nil {
		return err
	}
	stores := map[int]*store.Store{}
	var writers []*wal.Writer
	defer func() {
		for _, w := range writers {
			w.Close()
		}
	}()
	for n := 6; n <= 8; n++ {
		st, w, err := store.Recover(filepath.Join(data, fmt.Sprintf("n%d", n)), n,
			store.Options{}, wal.Options{FsyncEvery: fsyncInterval})
		if err != nil {
			return err
		}
		stores[n], writers = st, append(writers, w)
	}
	type outcome struct {
		id    identity
		isNew bool
	}
	out := make([][]outcome, len(lr.in.fs))
	for i, fs := range lr.in.fs {
		out[i] = make([]outcome, len(fs))
	}
	m0 := mallocs()
	w := lr.shaped("store.add", "store.add", func(_, i, j int) {
		f := lr.in.fs[i][j]
		key, idx, isNew := stores[f.NumVars()].AddCtx(ctx, f)
		out[i][j] = outcome{identity{key, idx}, isNew}
	})
	w.mallocs = mallocs() - m0
	lr.created = map[int][]walRecord{}
	created, chainMax := 0, 0
	for i, qs := range lr.in.stream {
		for j, q := range qs {
			if o := out[i][j]; o.isNew {
				created++
				n := q.f.NumVars()
				lr.created[n] = append(lr.created[n], walRecord{o.id.key, q.f})
			}
		}
		err := lr.checkInsert(qs, func(j int) (identity, bool) { return out[i][j].id, out[i][j].isNew })
		if err != nil {
			lr.fail("store.add", i, err)
		}
	}
	for _, st := range stores {
		if _, m := st.ChainStats(); m > chainMax {
			chainMax = m
		}
	}
	lr.res.set("store.us_per_add", w.usPerCall())
	lr.res.set("store.new_class_ratio", ratio(float64(created), float64(w.calls)))
	lr.res.set("store.chain_max", float64(chainMax))
	return nil
}

// rowWAL appends the classes the insert-durable traffic created to fresh
// logs: the journal's share of the write path.
func (lr *layerRun) rowWAL(ctx context.Context) error {
	if !lr.in.insert {
		return nil
	}
	m, err := lr.appendWAL(filepath.Join(lr.dir, "wal"), "wal.append", lr.created)
	if err != nil {
		return err
	}
	lr.setWAL(m)
	return nil
}

// slots lists the (arity, worker) slots shape can hand out for the
// replayed requests.
func (lr *layerRun) slots() map[int]int {
	workers := runtime.GOMAXPROCS(0)
	out := map[int]int{}
	for _, fs := range lr.in.fs {
		for _, f := range fs {
			for w := 0; w < workers; w++ {
				out[f.NumVars()*workers+w] = f.NumVars()
			}
		}
	}
	return out
}

// rowCore is row 8: core.Classifier.Hash per function, in the store's
// configuration (the paper's full MSV with the fast OSDV path).
func (lr *layerRun) rowCore(ctx context.Context) error {
	cfg := core.ConfigAll()
	cfg.FastOSDV = true
	cls := map[int]*core.Classifier{}
	for slot, n := range lr.slots() {
		cls[slot] = core.New(n, cfg)
	}
	keys := make([][]uint64, len(lr.in.fs))
	for i, fs := range lr.in.fs {
		keys[i] = make([]uint64, len(fs))
	}
	w := lr.shaped("core", "core.hash", func(slot, i, j int) {
		keys[i][j] = cls[slot].Hash(lr.in.fs[i][j])
	})
	for i, qs := range lr.in.stream {
		for j, q := range qs {
			if q.src >= 0 && keys[i][j] != lr.ck.ident[q.src].key {
				lr.fail("core", i, fmt.Errorf("item %d hashes to %016x, its source to %016x", j, keys[i][j], lr.ck.ident[q.src].key))
			}
		}
	}
	lr.res.set("core.hash_us_per_fn", w.usPerCall())
	return nil
}

// rowSig is row 9: the sig kernels the full MSV calls, split into the face
// characteristics (cofactor vectors OCV1, OCV2) and the point
// characteristics (influence OIV, sensitivity OSV0/1, sensitivity
// distance OSDV0/1), on the output phase(s) core serializes.
func (lr *layerRun) rowSig(ctx context.Context) error {
	engines := map[int]*sig.Engine{}
	bufs := map[int]*[]int{}
	for slot, n := range lr.slots() {
		engines[slot], bufs[slot] = sig.NewEngine(n), new([]int)
	}
	phases := make([][][]*tt.TT, len(lr.in.fs))
	for i, fs := range lr.in.fs {
		phases[i] = make([][]*tt.TT, len(fs))
		for j, f := range fs {
			ones, half := f.CountOnes(), f.NumBits()/2
			switch {
			case ones > half:
				phases[i][j] = []*tt.TT{f.Not()}
			case ones < half:
				phases[i][j] = []*tt.TT{f}
			default:
				phases[i][j] = []*tt.TT{f, f.Not()}
			}
		}
	}
	face, point := lr.row("sig.face"), lr.row("sig.point")
	for i, fs := range lr.in.fs {
		root := lr.spans.open("sig", -1, i)
		var faceNS, pointNS atomic.Int64
		shape(fs, func(slot, j int) {
			e, buf := engines[slot], bufs[slot]
			sp := lr.spans.open("sig.face", root, i)
			for _, ph := range phases[i][j] {
				*buf = e.AppendOCV1((*buf)[:0], ph)
				*buf = e.AppendOCV2((*buf)[:0], ph)
			}
			faceNS.Add(int64(lr.spans.close(sp)))
			sp = lr.spans.open("sig.point", root, i)
			for _, ph := range phases[i][j] {
				*buf = e.AppendOIV((*buf)[:0], ph)
				e.OSV01(ph)
				e.OSDV01Fast(ph)
			}
			pointNS.Add(int64(lr.spans.close(sp)))
		})
		lr.spans.close(root)
		face.busy += time.Duration(faceNS.Load())
		point.busy += time.Duration(pointNS.Load())
		face.calls += len(fs)
		point.calls += len(fs)
	}
	lr.res.set("sig.face_us_per_fn", face.usPerCall())
	lr.res.set("sig.point_us_per_fn", point.usPerCall())
	return nil
}

// derive turns the rows into the per-layer metrics and prints the ledger.
func (lr *layerRun) derive() {
	r := lr.res
	reqs := float64(len(lr.in.stream))
	per := func(name string) float64 { return lr.rows[name].usPerCall() }
	wall := func(name string) float64 { return us(lr.rows[name].wall) / reqs }
	allocs := func(name string) float64 { return float64(lr.rows[name].mallocs) }
	storeRow := "store.lookup"
	if lr.in.insert {
		storeRow = "store.add"
	}
	// Share of the replayed functions that reach the store, and the
	// store's and core's resulting wall time per request.
	reach := ratio(float64(lr.storeCalls), float64(lr.fns))
	storePerReq, corePerReq := reach*wall(storeRow), reach*wall("core")

	self := map[string]float64{
		"edge":       per("npnserve") - per("client"),
		"client":     per("client") - per("http"),
		"http":       per("http") - per("api"),
		"api":        per("api") - per("federation"),
		"federation": per("federation") - per("service"),
		"service":    per("service") - storePerReq,
		storeRow:     storePerReq - corePerReq,
		"core":       corePerReq,
	}
	r.set("edge.self_us_per_req", self["edge"])
	r.set("client.self_us_per_req", self["client"])
	r.set("client.allocs_per_req", (allocs("client")-allocs("http"))/reqs)
	r.set("http.self_us_per_req", self["http"])
	r.set("api.self_us_per_req", self["api"])
	r.set("api.allocs_per_req", (allocs("api")-allocs("federation"))/reqs)
	r.set("federation.self_us_per_batch", self["federation"])
	r.set("federation.allocs_per_batch", (allocs("federation")-allocs("service"))/reqs)
	r.set("service.self_us_per_batch", self["service"])
	storeAllocs := float64(lr.storeCalls) * lr.rows[storeRow].allocsPerCall()
	r.set("service.allocs_per_fn", ratio(allocs("service")-storeAllocs, float64(lr.fns)))
	r.set("store.certify_us_per_fn", per("store.lookup")-per("core"))

	npnserve := per("npnserve")
	r.note("ledger: %d requests of %d functions replayed serially through every row", len(lr.in.stream), batchSize)
	r.note("ledger %-12s %12s %12s %8s %6s", "layer", "row us/req", "self us/req", "calls", "failed")
	for _, l := range []string{"npnserve", "client", "http", "api", "federation", "service", storeRow, "core"} {
		name, w := l, lr.rows[l]
		if l == "npnserve" {
			name = "edge"
		}
		rowUS := w.usPerCall()
		if w.wall > 0 {
			rowUS = wall(l)
		}
		r.note("ledger %-12s %12.2f %12.2f %8d %6d", name, rowUS, self[name], w.calls, w.fails)
	}
	r.note("ledger: %.1f%% of the replayed functions reach the store; of a %.1f us npnserve request "+
		"%.0f%% is spent above the store and %.0f%% in store+core",
		100*reach, npnserve, 100*ratio(npnserve-storePerReq, npnserve), 100*ratio(storePerReq, npnserve))
}
