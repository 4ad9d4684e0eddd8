package server

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden bodies under testdata/metrics/")

// goldenLatencies are the fixture's request durations. Each lies on
// the same side of every bucket bound whether the bound is compared in
// whole milliseconds or as a duration.
var goldenLatencies = []time.Duration{
	500 * time.Microsecond, 3 * time.Millisecond, 70 * time.Millisecond,
	2 * time.Second, 90 * time.Second,
}

// goldenMetricsSet is a fixed /metrics snapshot: stub stats sources,
// fixed counter values and histogram observations, and a normalised
// build identity. sharded adds two replicas, one of them unhealthy;
// tapped adds the engine tap and a populated H2P accumulator.
func goldenMetricsSet(sharded, tapped bool) *metricsSet {
	var shardSnap func() *shardSnapshot
	if sharded {
		shardSnap = func() *shardSnapshot {
			return &shardSnapshot{
				Replicas: []replicaStat{
					{Addr: "10.0.0.1:8329", Routes: 41, Healthy: true},
					{Addr: "10.0.0.2:8329", Routes: 17},
				},
				Reroutes:  5,
				Fallbacks: 2,
			}
		}
	}
	var tap *obs.Counters
	h2p := &h2pSnapshot{}
	if tapped {
		tap = obs.NewCounters()
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			for i := 0; i <= int(k); i++ {
				tap.Observe(core.Event{Redirect: k%2 == 0, Penalty: 2 + int(k), Kind: k})
			}
		}
		tap.Observe(core.Event{})
		h2p = &h2pSnapshot{Requests: 3, Blocks: 12345, Sites: 7}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			h2p.Kinds[k] = 10 * uint64(k+1)
		}
		h2p.Top = []obs.H2PSite{
			{Addr: 0x4010, Events: 9, Cycles: 90, Kind: 0},
			{Addr: 0x4200, Events: 4, Cycles: 36, Kind: 3},
			{Addr: 0x5004, Events: 2, Cycles: 14, Kind: 7},
		}
	}
	queue := make(chan struct{}, 8)
	for i := 0; i < 3; i++ {
		queue <- struct{}{} // three requests in flight
	}
	m := newMetricsSet(metricSources{
		queue:       queue,
		traceStats:  func() flight.Stats { return flight.Stats{Hits: 120, Misses: 30} },
		resultStats: func() flight.Stats { return flight.Stats{Hits: 50, Misses: 20, Coalesced: 4, Evictions: 1} },
		poolStats: func() harness.PoolStats {
			return harness.PoolStats{
				Workers: 2, Submits: 300, OwnPops: 250, Steals: 50, Parks: 12, MaxQueueDepth: 9,
				WorkerBusy: []time.Duration{1500 * time.Millisecond, 2250 * time.Millisecond},
			}
		},
		h2pSnap:   func() *h2pSnapshot { return h2p },
		shardSnap: shardSnap,
		tap:       tap,
	})
	m.build = buildInfo{GoVersion: "go1.0", Version: "v0.0.0", Revision: "0123456789ab"}
	m.requestsTotal.Add(61)
	m.requestsOK.Add(40)
	m.requestsRejected.Add(6)
	m.requestsBad.Add(5)
	m.requestsCancelled.Add(3)
	m.requestsErrored.Add(2)
	m.requestsNotModified.Add(1)
	m.jobPanics.Add(1)
	for _, d := range goldenLatencies {
		m.observeLatency(d)
	}
	return m
}

// TestMetricsGolden pins both /metrics bodies of three fixed snapshots
// (plain, sharded, tapped) byte for byte. Regenerate with
// `go test ./internal/server/ -run TestMetricsGolden -update`.
func TestMetricsGolden(t *testing.T) {
	for _, v := range []struct {
		name            string
		sharded, tapped bool
	}{{"plain", false, false}, {"sharded", true, false}, {"tapped", false, true}} {
		for _, form := range []struct{ ext, query string }{{"json", ""}, {"prom", "?format=prom"}} {
			t.Run(v.name+"."+form.ext, func(t *testing.T) {
				w := httptest.NewRecorder()
				goldenMetricsSet(v.sharded, v.tapped).handler(w, httptest.NewRequest("GET", "/metrics"+form.query, nil))
				path := filepath.Join("testdata", "metrics", v.name+"."+form.ext)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got := w.Body.String(); got != string(want) {
					t.Errorf("/metrics%s body differs from %s:\n got:\n%s\nwant:\n%s", form.query, path, got, want)
				}
			})
		}
	}
}
