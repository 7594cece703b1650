// Prometheus export of the follower's replication state (internal/obs):
// lag gauges per arity, tail-loop health and the proxy counters, read
// from the Follower.Stats snapshot at scrape time.
package replica

import (
	"strconv"

	"repro/internal/obs"
)

// Family indices of the follower's pull collector.
const (
	famLagSegments = iota
	famLagBytes
	famAppliedRecords
	famSyncs
	famSyncErrors
	famSnapshotLoads
	famProxiedClassifies
	famProxiedInserts
	famProxyErrors
	famStale
	famLastSyncAge
)

func followerFams() []obs.FuncFamily {
	arity := []string{"arity"}
	return []obs.FuncFamily{
		famLagSegments:       {Name: "npn_replica_lag_segments", Help: "Manifest segments the replication cursor had not passed when the last pass began, by arity.", Kind: obs.KindGauge, Labels: arity},
		famLagBytes:          {Name: "npn_replica_lag_bytes", Help: "Manifest bytes the replication cursor had not passed when the last pass began, by arity.", Kind: obs.KindGauge, Labels: arity},
		famAppliedRecords:    {Name: "npn_replica_applied_records_total", Help: "Records published into the local store, by arity.", Kind: obs.KindCounter, Labels: arity},
		famSyncs:             {Name: "npn_replica_syncs_total", Help: "Tail-loop passes attempted.", Kind: obs.KindCounter},
		famSyncErrors:        {Name: "npn_replica_sync_errors_total", Help: "Tail-loop passes that failed.", Kind: obs.KindCounter},
		famSnapshotLoads:     {Name: "npn_replica_snapshot_loads_total", Help: "Base snapshots fetched and applied.", Kind: obs.KindCounter},
		famProxiedClassifies: {Name: "npn_replica_proxied_classifies_total", Help: "Classify misses re-asked of the primary.", Kind: obs.KindCounter},
		famProxiedInserts:    {Name: "npn_replica_proxied_inserts_total", Help: "Insert batches forwarded to the primary.", Kind: obs.KindCounter},
		famProxyErrors:       {Name: "npn_replica_proxy_errors_total", Help: "Proxy requests the primary failed to answer usably.", Kind: obs.KindCounter},
		famStale:             {Name: "npn_replica_stale", Help: "1 when the staleness gate is tripped, 0 otherwise.", Kind: obs.KindGauge},
		famLastSyncAge:       {Name: "npn_replica_last_sync_age_seconds", Help: "Age of the last fully successful sync; -1 before the first.", Kind: obs.KindGauge},
	}
}

// RegisterMetrics exports the follower's replication state on m as a
// pull collector over the Stats snapshot. The local federation's own
// metrics are registered separately (Registry.RegisterMetrics), usually
// through the handler options.
func (f *Follower) RegisterMetrics(m *obs.Registry) {
	m.RegisterFunc(followerFams(), func(emit func(int, []string, float64)) {
		st := f.Stats()
		emit(famSyncs, nil, float64(st.Syncs))
		emit(famSyncErrors, nil, float64(st.SyncErrors))
		emit(famSnapshotLoads, nil, float64(st.SnapshotLoads))
		emit(famProxiedClassifies, nil, float64(st.ProxiedClassifies))
		emit(famProxiedInserts, nil, float64(st.ProxiedInserts))
		emit(famProxyErrors, nil, float64(st.ProxyErrors))
		emit(famStale, nil, b2f(st.Stale))
		age := -1.0
		if st.LastSyncAgeMs >= 0 {
			age = st.LastSyncAgeMs / 1e3
		}
		emit(famLastSyncAge, nil, age)
		for _, a := range st.Arities {
			l := []string{strconv.Itoa(a.Arity)}
			emit(famLagSegments, l, float64(a.LagSegments))
			emit(famLagBytes, l, float64(a.LagBytes))
			emit(famAppliedRecords, l, float64(a.AppliedRecords))
		}
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
