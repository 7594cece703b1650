// Prometheus export of the federation's counters (internal/obs), the
// registry's one read-out. Each layer keeps its own counters behind a
// Stats() snapshot (service, WAL writer) or shape accessors (store), and
// a pull collector reads them at scrape time, so /metrics is a view of
// those counters, never a copy. Only latency and size distributions
// (batch size/duration, fsync duration), which no counter carries, are
// push-updated histograms fed through the service.Options.ObserveBatch
// and wal.Options.ObserveFsync hooks.
package federation

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// obsHooks holds the push-side instruments installed into every
// lazily-constructed service and WAL writer.
type obsHooks struct {
	batchSize *obs.HistogramVec // op, arity
	batchDur  *obs.HistogramVec // op, arity
	fsyncDur  *obs.HistogramVec // arity
}

// Family indices of the pull collector, aligned with registryFams.
const (
	famSvcLookups = iota
	famSvcHits
	famSvcMisses
	famSvcCacheHits
	famSvcInserts
	famSvcCreated
	famSvcCollisions
	famSvcDeduped
	famSvcBatches
	famSvcInflight
	famSvcCacheEntries
	famStoreClasses
	famStoreCollisions
	famStoreChains
	famStoreChainMax
	famStoreShard
	famProfHits
	famProfMisses
	famProfEntries
	famJournalErrs
	famWALSegments
	famWALSealed
	famWALBytes
	famWALRecords
	famWALFsyncs
	famWALRotations
	famWALFsyncLag
	famFedActive
	famFedDurable
)

func registryFams() []obs.FuncFamily {
	arity := []string{"arity"}
	return []obs.FuncFamily{
		famSvcLookups:      {Name: "npn_service_lookups_total", Help: "Functions looked up, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcHits:         {Name: "npn_service_hits_total", Help: "Lookups whose class was stored, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcMisses:       {Name: "npn_service_misses_total", Help: "Lookups whose class was absent, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcCacheHits:    {Name: "npn_service_cache_hits_total", Help: "Lookups answered by the function->result LRU cache, every copy in a batch counted, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcInserts:      {Name: "npn_service_inserts_total", Help: "Functions submitted for insert, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcCreated:      {Name: "npn_service_classes_created_total", Help: "Inserts that founded a new class, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcCollisions:   {Name: "npn_service_insert_collisions_total", Help: "New classes landing on an occupied key (chained), by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcDeduped:      {Name: "npn_service_deduped_keys_total", Help: "Batch members answered by an earlier copy in their own batch; in a classify batch only copies of an LRU miss, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcBatches:      {Name: "npn_service_batches_total", Help: "Batches processed, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSvcInflight:     {Name: "npn_service_inflight_batches", Help: "Batches executing right now, by arity.", Kind: obs.KindGauge, Labels: arity},
		famSvcCacheEntries: {Name: "npn_service_cache_entries", Help: "Entries in the function->result LRU cache, by arity.", Kind: obs.KindGauge, Labels: arity},
		famStoreClasses:    {Name: "npn_store_classes", Help: "Classes stored, by arity.", Kind: obs.KindGauge, Labels: arity},
		famStoreCollisions: {Name: "npn_store_collisions", Help: "Representatives beyond the first of their key, by arity.", Kind: obs.KindGauge, Labels: arity},
		famStoreChains:     {Name: "npn_store_chains", Help: "Distinct collision chains (keys), by arity.", Kind: obs.KindGauge, Labels: arity},
		famStoreChainMax:   {Name: "npn_store_chain_max_length", Help: "Longest collision chain behind any one key, by arity.", Kind: obs.KindGauge, Labels: arity},
		famStoreShard:      {Name: "npn_store_shard_classes", Help: "Classes per lock shard, by arity and shard.", Kind: obs.KindGauge, Labels: []string{"arity", "shard"}},
		famProfHits:        {Name: "npn_store_profile_cache_hits_total", Help: "Lookups reusing a memoized representative profile, by arity.", Kind: obs.KindCounter, Labels: arity},
		famProfMisses:      {Name: "npn_store_profile_cache_misses_total", Help: "Lookups that built a representative profile, by arity.", Kind: obs.KindCounter, Labels: arity},
		famProfEntries:     {Name: "npn_store_profile_cache_entries", Help: "Memoized representative profiles, by arity.", Kind: obs.KindGauge, Labels: arity},
		famJournalErrs:     {Name: "npn_store_journal_errors_total", Help: "Inserts refused because the write-ahead journal failed, by arity.", Kind: obs.KindCounter, Labels: arity},
		famWALSegments:     {Name: "npn_wal_segments", Help: "Log segment files on disk, by arity.", Kind: obs.KindGauge, Labels: arity},
		famWALSealed:       {Name: "npn_wal_sealed_segments", Help: "Sealed (rotation-complete) log segments, by arity.", Kind: obs.KindGauge, Labels: arity},
		famWALBytes:        {Name: "npn_wal_bytes", Help: "Total log bytes on disk (plus buffered), by arity.", Kind: obs.KindGauge, Labels: arity},
		famWALRecords:      {Name: "npn_wal_records_total", Help: "Records appended since the writer opened, by arity.", Kind: obs.KindCounter, Labels: arity},
		famWALFsyncs:       {Name: "npn_wal_fsyncs_total", Help: "Fsyncs since the writer opened, by arity.", Kind: obs.KindCounter, Labels: arity},
		famWALRotations:    {Name: "npn_wal_rotations_total", Help: "Segment rotations since the writer opened, by arity.", Kind: obs.KindCounter, Labels: arity},
		famWALFsyncLag:     {Name: "npn_wal_fsync_lag_seconds", Help: "Age of the oldest append not yet fsynced (data at risk), by arity.", Kind: obs.KindGauge, Labels: arity},
		famFedActive:       {Name: "npn_federation_active_arities", Help: "Arities whose service has been constructed.", Kind: obs.KindGauge},
		famFedDurable:      {Name: "npn_federation_durable", Help: "1 when classes persist to WAL directories, 0 when memory-only.", Kind: obs.KindGauge},
	}
}

// RegisterMetrics exports the federation on m: push histograms for batch
// size/duration and fsync latency (installed into every service and WAL
// writer constructed afterwards — call before serving traffic), and a
// pull collector for everything the layers' snapshots already count.
// Idempotent: a second call is a no-op, so handler construction and cmd
// wiring can both call it safely.
func (r *Registry) RegisterMetrics(m *obs.Registry) {
	r.mu.Lock()
	if r.obsRegistered {
		r.mu.Unlock()
		return
	}
	r.obsRegistered = true
	r.mu.Unlock()

	h := &obsHooks{
		batchSize: m.HistogramVec("npn_service_batch_size",
			"Functions per batch, by operation and arity.", obs.SizeBuckets(), "op", "arity"),
		batchDur: m.HistogramVec("npn_service_batch_duration_seconds",
			"Wall time per batch, by operation and arity.", obs.DurationBuckets(), "op", "arity"),
		fsyncDur: m.HistogramVec("npn_wal_fsync_duration_seconds",
			"WAL fsync latency, by arity.", obs.DurationBuckets(), "arity"),
	}
	r.mu.Lock()
	r.obs = h
	r.mu.Unlock()
	m.RegisterFunc(registryFams(), r.collectMetrics)
}

// hooksFor builds arity n's service and WAL observation hooks from the
// installed instruments, or returns nil funcs when metrics are off.
// Called under r.mu from the lazy construction path.
func (r *Registry) hooksFor(n int) (observeBatch func(string, int, time.Duration), observeFsync func(time.Duration)) {
	h := r.obs
	if h == nil {
		return nil, nil
	}
	arity := strconv.Itoa(n)
	observeBatch = func(op string, size int, d time.Duration) {
		h.batchSize.With(op, arity).Observe(float64(size))
		h.batchDur.With(op, arity).ObserveDuration(d)
	}
	observeFsync = func(d time.Duration) {
		h.fsyncDur.With(arity).ObserveDuration(d)
	}
	return observeBatch, observeFsync
}

// collectMetrics is the pull collector: one snapshot of each layer per
// scrape, fanned into every registered family. Each store is walked
// twice, chains first: classes are the sum of the shard sizes read after,
// and collisions are classes minus chains. Both counts only grow and
// every chain holds a class, so the difference is never negative.
func (r *Registry) collectMetrics(emit func(fam int, labelValues []string, value float64)) {
	active := r.Active()
	emit(famFedActive, nil, float64(len(active)))
	emit(famFedDurable, nil, b2f(r.Durable()))
	for _, n := range active {
		svc, err := r.Service(n)
		if err != nil {
			continue
		}
		a := []string{strconv.Itoa(n)}
		s := svc.Stats()
		emit(famSvcLookups, a, float64(s.Lookups))
		emit(famSvcHits, a, float64(s.Hits))
		emit(famSvcMisses, a, float64(s.Misses))
		emit(famSvcCacheHits, a, float64(s.CacheHits))
		emit(famSvcInserts, a, float64(s.Inserts))
		emit(famSvcCreated, a, float64(s.Created))
		emit(famSvcCollisions, a, float64(s.Collisions))
		emit(famSvcDeduped, a, float64(s.Deduped))
		emit(famSvcBatches, a, float64(s.Batches))
		emit(famSvcInflight, a, float64(s.InflightBatches))
		emit(famSvcCacheEntries, a, float64(s.CacheEntries))
		emit(famProfHits, a, float64(s.ProfileHits))
		emit(famProfMisses, a, float64(s.ProfileMisses))
		emit(famProfEntries, a, float64(s.ProfileEntries))
		emit(famJournalErrs, a, float64(s.JournalErrors))

		st := svc.Store()
		chains, maxLen := st.ChainStats()
		classes := 0
		for i, sz := range st.ShardSizes() {
			classes += sz
			emit(famStoreShard, []string{a[0], strconv.Itoa(i)}, float64(sz))
		}
		emit(famStoreClasses, a, float64(classes))
		emit(famStoreCollisions, a, float64(classes-chains))
		emit(famStoreChains, a, float64(chains))
		emit(famStoreChainMax, a, float64(maxLen))

		if w := r.writer(n); w != nil {
			ws := w.Stats()
			emit(famWALSegments, a, float64(ws.Segments))
			emit(famWALSealed, a, float64(ws.SealedSegments))
			emit(famWALBytes, a, float64(ws.Bytes))
			emit(famWALRecords, a, float64(ws.Records))
			emit(famWALFsyncs, a, float64(ws.Fsyncs))
			emit(famWALRotations, a, float64(ws.Rotations))
			emit(famWALFsyncLag, a, ws.FsyncLagMillis/1e3)
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
