package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/pkg/client"
)

// TestFollowerMetricsStatsParity is the exposition-parity check for the
// replication series: every npn_replica_* family the follower registers
// must round-trip through a live /metrics scrape (obs.Parse via
// client.Metrics) and agree with the follower's in-process Stats()
// snapshot it is collected from.
func TestFollowerMetricsStatsParity(t *testing.T) {
	ctx := context.Background()
	pc, _ := startServer(t, metricsConfig(t))
	if _, err := pc.Insert(ctx, []string{"1ee1", "cafef00dcafef00d"}); err != nil {
		t.Fatal(err)
	}

	fcfg := config{arities: "4-6", shards: 4, cache: 16,
		follow: pc.Base(), followMode: "proxy", followInterval: time.Hour,
		metrics: true}
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
	fsrv := httptest.NewServer(replica.NewHandlerOpts(fol, fopts))
	t.Cleanup(fsrv.Close)
	fc := client.New(fsrv.URL)

	// Touch the proxy path so the proxied counters are nonzero: a miss
	// re-asked of the primary and an insert forwarded to it.
	if _, err := fc.Classify(ctx, []string{"8000000000000001"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Insert(ctx, []string{"17ff"}); err != nil {
		t.Fatal(err)
	}

	sc, err := fc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := fol.Stats()

	// Every replication family must be present in the exposition.
	families := []string{
		"npn_replica_lag_segments", "npn_replica_lag_bytes",
		"npn_replica_applied_records_total",
		"npn_replica_syncs_total", "npn_replica_sync_errors_total",
		"npn_replica_snapshot_loads_total",
		"npn_replica_proxied_classifies_total", "npn_replica_proxied_inserts_total",
		"npn_replica_proxy_errors_total",
		"npn_replica_stale", "npn_replica_last_sync_age_seconds",
	}
	for _, f := range families {
		if !sc.Has(f) {
			t.Errorf("exposition has no %s family", f)
		}
	}

	// And each must agree with the snapshot it is collected from.
	// Arity-labeled families compare as their sum against the snapshot's
	// totals; the scrape and the snapshot are sequential with no
	// replication traffic between them, so the values are stable.
	for _, tc := range []struct {
		family string
		want   float64
	}{
		{"npn_replica_lag_segments", float64(st.LagSegments)},
		{"npn_replica_lag_bytes", float64(st.LagBytes)},
		{"npn_replica_applied_records_total", float64(st.AppliedRecords)},
		{"npn_replica_syncs_total", float64(st.Syncs)},
		{"npn_replica_sync_errors_total", float64(st.SyncErrors)},
		{"npn_replica_snapshot_loads_total", float64(st.SnapshotLoads)},
		{"npn_replica_proxied_classifies_total", float64(st.ProxiedClassifies)},
		{"npn_replica_proxied_inserts_total", float64(st.ProxiedInserts)},
		{"npn_replica_proxy_errors_total", float64(st.ProxyErrors)},
	} {
		if got := sc.Sum(tc.family); got != tc.want {
			t.Errorf("%s = %v, Stats() says %v", tc.family, got, tc.want)
		}
	}
	if st.ProxiedClassifies == 0 || st.ProxiedInserts == 0 {
		t.Errorf("proxy counters untouched (%d classifies, %d inserts): the parity check proved nothing",
			st.ProxiedClassifies, st.ProxiedInserts)
	}

	wantStale := 0.0
	if st.Stale {
		wantStale = 1
	}
	if got, ok := sc.Value("npn_replica_stale"); !ok || got != wantStale {
		t.Errorf("npn_replica_stale = %v (ok=%v), Stats() says %v", got, ok, st.Stale)
	}
	// The age gauge and LastSyncAgeMs are sampled at different instants,
	// so parity is sign-level: both nonnegative after a successful sync.
	age, ok := sc.Value("npn_replica_last_sync_age_seconds")
	if !ok || (age >= 0) != (st.LastSyncAgeMs >= 0) {
		t.Errorf("npn_replica_last_sync_age_seconds = %v (ok=%v), Stats() age %vms disagrees on sign",
			age, ok, st.LastSyncAgeMs)
	}
}
