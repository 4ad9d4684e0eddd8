package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
)

// latencyBuckets are the upper bounds (milliseconds) of the request
// latency histogram, log-spaced from interactive to batch territory.
var latencyBuckets = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// histogram is the request-latency histogram. All observations and
// snapshots go through one mutex: a snapshot is a single consistent
// state, so cumulative bucket counts are monotone non-decreasing, the
// +Inf bucket equals the count, and sum/count always describe the same
// set of observations — even while requests land concurrently. (The
// earlier lock-free version could be read mid-observation.)
type histogram struct {
	mu      sync.Mutex
	buckets []uint64 // cumulative count per latencyBuckets bound
	count   uint64   // total observations; also the +Inf bucket
	sum     time.Duration
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]uint64, len(latencyBuckets))}
}

func (h *histogram) observe(d time.Duration) {
	ms := d.Milliseconds()
	h.mu.Lock()
	for i, le := range latencyBuckets {
		if ms <= le {
			h.buckets[i]++
		}
	}
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// histSnapshot is one atomic read of the histogram.
type histSnapshot struct {
	Buckets []uint64
	Count   uint64
	Sum     time.Duration
}

func (h *histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot{
		Buckets: append([]uint64(nil), h.buckets...),
		Count:   h.count,
		Sum:     h.sum,
	}
}

// buildInfo is the binary's identity, stamped into /healthz and the
// Prometheus build_info metric.
type buildInfo struct {
	GoVersion string
	Version   string
	Revision  string
}

func readBuildInfo() buildInfo {
	b := buildInfo{GoVersion: runtime.Version(), Version: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.GoVersion = bi.GoVersion
		if bi.Main.Version != "" {
			b.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				b.Revision = s.Value
			}
		}
	}
	return b
}

// metricsSet is the service's observability surface. Request counters
// are expvar.Ints (private to the set, never in the process-global
// registry, so multiple servers — tests! — never collide); the latency
// histogram, trace-cache stats, pool telemetry, and tap counters are
// all read through one snapshot() per render. GET /metrics serves the
// snapshot as JSON, or Prometheus text exposition with ?format=prom.
type metricsSet struct {
	requestsTotal       *expvar.Int // sweep requests received
	requestsOK          *expvar.Int // completed 200s
	requestsRejected    *expvar.Int // 429 backpressure rejections
	requestsBad         *expvar.Int // 400 validation failures
	requestsCancelled   *expvar.Int // client gone / deadline exceeded
	requestsErrored     *expvar.Int // everything else (500s, 503s)
	requestsNotModified *expvar.Int // 304 ETag revalidations
	jobPanics           *expvar.Int // requests failed by a panicking pool job
	inflight            *expvar.Int // admitted and currently running

	queueCapacity int64
	hist          *histogram

	cacheStats  func() (hits, misses uint64)
	resultStats func() flight.Stats   // nil only in partial test setups
	shardSnap   func() *shardSnapshot // nil unless shard mode
	poolStats   func() harness.PoolStats
	tap         *obs.Counters       // nil when the engine tap is off
	h2pSnap     func() *h2pSnapshot // nil only in partial test setups

	stateBits core.StateBitsBreakdown
	build     buildInfo
}

func newMetricsSet(queueCapacity int, cacheStats func() (hits, misses uint64),
	resultStats func() flight.Stats, shardSnap func() *shardSnapshot,
	poolStats func() harness.PoolStats, tap *obs.Counters,
	h2pSnap func() *h2pSnapshot) *metricsSet {
	m := &metricsSet{
		requestsTotal:       new(expvar.Int),
		requestsOK:          new(expvar.Int),
		requestsRejected:    new(expvar.Int),
		requestsBad:         new(expvar.Int),
		requestsCancelled:   new(expvar.Int),
		requestsErrored:     new(expvar.Int),
		requestsNotModified: new(expvar.Int),
		jobPanics:           new(expvar.Int),
		inflight:            new(expvar.Int),
		queueCapacity:       int64(queueCapacity),
		hist:                newHistogram(),
		cacheStats:          cacheStats,
		resultStats:         resultStats,
		shardSnap:           shardSnap,
		poolStats:           poolStats,
		tap:                 tap,
		h2pSnap:             h2pSnap,
		build:               readBuildInfo(),
	}
	// The hardware-cost accounting of the default configuration's
	// predictor structures (Table 7 conventions), measured from a live
	// engine — the same numbers `mbpexp cost` prints.
	if eng, err := core.New(core.DefaultConfig()); err == nil {
		m.stateBits = eng.StateBits()
	}
	return m
}

// observeLatency records one completed request duration.
func (m *metricsSet) observeLatency(d time.Duration) { m.hist.observe(d) }

// metricsSnapshot is one consistent scrape: the cache stats come from a
// single Stats() call (hits and misses belong to the same instant — two
// separate reads could tear across a concurrent lookup), the histogram
// from a single locked copy, the pool and tap counters from one pass of
// atomic loads.
type metricsSnapshot struct {
	Total, OK, Rejected, Bad, Cancelled, Errored int64
	NotModified                                  int64
	JobPanics                                    int64
	Inflight                                     int64
	CacheHits, CacheMisses                       uint64
	Results                                      flight.Stats
	Shard                                        *shardSnapshot
	Hist                                         histSnapshot
	Pool                                         harness.PoolStats
	Tap                                          *obs.CountersSnapshot
	H2P                                          *h2pSnapshot
}

func (m *metricsSet) snapshot() metricsSnapshot {
	hits, misses := m.cacheStats() // exactly one call per render
	s := metricsSnapshot{
		Total:       m.requestsTotal.Value(),
		OK:          m.requestsOK.Value(),
		Rejected:    m.requestsRejected.Value(),
		Bad:         m.requestsBad.Value(),
		Cancelled:   m.requestsCancelled.Value(),
		Errored:     m.requestsErrored.Value(),
		NotModified: m.requestsNotModified.Value(),
		JobPanics:   m.jobPanics.Value(),
		Inflight:    m.inflight.Value(),
		CacheHits:   hits,
		CacheMisses: misses,
		Hist:        m.hist.snapshot(),
	}
	if m.resultStats != nil {
		s.Results = m.resultStats()
	}
	if m.shardSnap != nil {
		s.Shard = m.shardSnap()
	}
	if m.poolStats != nil {
		s.Pool = m.poolStats()
	}
	if m.tap != nil {
		t := m.tap.Snapshot()
		s.Tap = &t
	}
	if m.h2pSnap != nil {
		s.H2P = m.h2pSnap()
	}
	return s
}

// handler serves the metrics snapshot: JSON by default (the expvar-ish
// document the CLI and tests consume), Prometheus text exposition with
// ?format=prom.
func (m *metricsSet) handler(w http.ResponseWriter, r *http.Request) {
	s := m.snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.writeProm(w, s)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	m.writeJSON(w, s)
}

// writeJSON renders the historical document shape: flat request
// counters, the le_-keyed cumulative histogram, the state-bits
// breakdown, plus the pool and (when enabled) tap groups.
func (m *metricsSet) writeJSON(w io.Writer, s metricsSnapshot) {
	latency := map[string]uint64{"le_inf": s.Hist.Count}
	for i, le := range latencyBuckets {
		latency[fmt.Sprintf("le_%dms", le)] = s.Hist.Buckets[i]
	}
	pool := map[string]any{
		"workers":         s.Pool.Workers,
		"submits":         s.Pool.Submits,
		"own_pops":        s.Pool.OwnPops,
		"steals":          s.Pool.Steals,
		"parks":           s.Pool.Parks,
		"max_queue_depth": s.Pool.MaxQueueDepth,
		"busy_ms":         s.Pool.BusyTotal().Milliseconds(),
	}
	doc := map[string]any{
		"requests_total":         s.Total,
		"requests_ok":            s.OK,
		"requests_rejected":      s.Rejected,
		"requests_bad":           s.Bad,
		"requests_cancelled":     s.Cancelled,
		"requests_errored":       s.Errored,
		"requests_not_modified":  s.NotModified,
		"job_panics":             s.JobPanics,
		"inflight":               s.Inflight,
		"queue_depth":            s.Inflight,
		"queue_capacity":         m.queueCapacity,
		"trace_cache_hits":       s.CacheHits,
		"trace_cache_misses":     s.CacheMisses,
		"result_cache_hits":      s.Results.Hits,
		"result_cache_misses":    s.Results.Misses,
		"result_cache_coalesced": s.Results.Coalesced,
		"result_cache_evictions": s.Results.Evictions,
		"job_latency_ms":         latency,
		"job_latency_count":      s.Hist.Count,
		"job_latency_sum_ms":     s.Hist.Sum.Milliseconds(),
		"state_bits": map[string]int{
			"pht":          m.stateBits.PHT,
			"bit":          m.stateBits.BIT,
			"select_table": m.stateBits.SelectTable,
			"target_array": m.stateBits.TargetArray,
			"total":        m.stateBits.Total(),
		},
		"pool": pool,
	}
	if s.Shard != nil {
		routes := map[string]uint64{}
		healthy := 0
		for _, r := range s.Shard.Replicas {
			routes[r.Addr] = r.Routes
			if r.Healthy {
				healthy++
			}
		}
		doc["shard"] = map[string]any{
			"replicas":        len(s.Shard.Replicas),
			"healthy":         healthy,
			"routes":          routes,
			"reroutes":        s.Shard.Reroutes,
			"local_fallbacks": s.Shard.Fallbacks,
		}
	}
	if s.Tap != nil {
		cycles := map[string]uint64{}
		events := map[string]uint64{}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			cycles[kindLabel(k)] = s.Tap.PenaltyCycles[k]
			events[kindLabel(k)] = s.Tap.PenaltyEvents[k]
		}
		doc["tap"] = map[string]any{
			"blocks":         s.Tap.Blocks,
			"redirects":      s.Tap.Redirects,
			"penalty_cycles": cycles,
			"penalty_events": events,
		}
	}
	if s.H2P != nil {
		cycles := map[string]uint64{}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			cycles[kindLabel(k)] = s.H2P.Kinds[k]
		}
		top := make([]map[string]any, 0, len(s.H2P.Top))
		for _, site := range s.H2P.Top {
			top = append(top, map[string]any{
				"addr":   site.Addr,
				"kind":   kindLabel(site.Kind),
				"events": site.Events,
				"cycles": site.Cycles,
			})
		}
		doc["h2p"] = map[string]any{
			"requests":       s.H2P.Requests,
			"blocks":         s.H2P.Blocks,
			"sites":          s.H2P.Sites,
			"penalty_cycles": cycles,
			"top_blocks":     top,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// kindLabel is a metrics.Kind as a label value: lower snake, no spaces.
func kindLabel(k metrics.Kind) string {
	return strings.ReplaceAll(k.String(), " ", "_")
}

// writeProm renders the snapshot in Prometheus text exposition format
// (version 0.0.4): counters carry a _total suffix, the histogram uses
// _bucket{le=...}/_sum/_count with seconds as the base unit, gauges are
// bare, and build_info is the conventional always-1 info metric.
func (m *metricsSet) writeProm(w io.Writer, s metricsSnapshot) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP mbbpd_requests_total Sweep requests received.\n")
	p("# TYPE mbbpd_requests_total counter\n")
	p("mbbpd_requests_total %d\n", s.Total)

	p("# HELP mbbpd_request_outcomes_total Completed sweep requests by outcome.\n")
	p("# TYPE mbbpd_request_outcomes_total counter\n")
	for _, o := range []struct {
		label string
		v     int64
	}{
		{"ok", s.OK}, {"rejected", s.Rejected}, {"bad", s.Bad},
		{"cancelled", s.Cancelled}, {"errored", s.Errored},
		{"not_modified", s.NotModified},
	} {
		p("mbbpd_request_outcomes_total{outcome=%q} %d\n", o.label, o.v)
	}

	p("# HELP mbbpd_job_panics_total Sweep requests failed by a panicking pool job (answered 500).\n")
	p("# TYPE mbbpd_job_panics_total counter\n")
	p("mbbpd_job_panics_total %d\n", s.JobPanics)

	p("# HELP mbbpd_inflight_requests Admitted sweep requests currently running.\n")
	p("# TYPE mbbpd_inflight_requests gauge\n")
	p("mbbpd_inflight_requests %d\n", s.Inflight)
	p("# HELP mbbpd_queue_capacity Admission queue bound.\n")
	p("# TYPE mbbpd_queue_capacity gauge\n")
	p("mbbpd_queue_capacity %d\n", m.queueCapacity)

	p("# HELP mbbpd_trace_cache_hits_total Trace cache lookups served from cache.\n")
	p("# TYPE mbbpd_trace_cache_hits_total counter\n")
	p("mbbpd_trace_cache_hits_total %d\n", s.CacheHits)
	p("# HELP mbbpd_trace_cache_misses_total Trace cache lookups that captured a trace.\n")
	p("# TYPE mbbpd_trace_cache_misses_total counter\n")
	p("mbbpd_trace_cache_misses_total %d\n", s.CacheMisses)

	p("# HELP mbbpd_result_cache_hits_total Sweep requests served from a completed result-cache entry.\n")
	p("# TYPE mbbpd_result_cache_hits_total counter\n")
	p("mbbpd_result_cache_hits_total %d\n", s.Results.Hits)
	p("# HELP mbbpd_result_cache_misses_total Result-cache entries computed (or proxied) fresh.\n")
	p("# TYPE mbbpd_result_cache_misses_total counter\n")
	p("mbbpd_result_cache_misses_total %d\n", s.Results.Misses)
	p("# HELP mbbpd_result_cache_coalesced_total Sweep entries that waited on an identical in-flight request.\n")
	p("# TYPE mbbpd_result_cache_coalesced_total counter\n")
	p("mbbpd_result_cache_coalesced_total %d\n", s.Results.Coalesced)
	p("# HELP mbbpd_result_cache_evictions_total Result-cache entries evicted for capacity.\n")
	p("# TYPE mbbpd_result_cache_evictions_total counter\n")
	p("mbbpd_result_cache_evictions_total %d\n", s.Results.Evictions)

	if s.Shard != nil {
		healthy := 0
		p("# HELP mbbpd_shard_routes_total Sweep requests proxied to each replica.\n")
		p("# TYPE mbbpd_shard_routes_total counter\n")
		for _, r := range s.Shard.Replicas {
			p("mbbpd_shard_routes_total{replica=%q} %d\n", r.Addr, r.Routes)
			if r.Healthy {
				healthy++
			}
		}
		p("# HELP mbbpd_shard_reroutes_total Proxy attempts routed past a key's owning replica.\n")
		p("# TYPE mbbpd_shard_reroutes_total counter\n")
		p("mbbpd_shard_reroutes_total %d\n", s.Shard.Reroutes)
		p("# HELP mbbpd_shard_local_fallbacks_total Requests executed locally because no replica was reachable.\n")
		p("# TYPE mbbpd_shard_local_fallbacks_total counter\n")
		p("mbbpd_shard_local_fallbacks_total %d\n", s.Shard.Fallbacks)
		p("# HELP mbbpd_shard_replicas Configured replica count.\n")
		p("# TYPE mbbpd_shard_replicas gauge\n")
		p("mbbpd_shard_replicas %d\n", len(s.Shard.Replicas))
		p("# HELP mbbpd_shard_replicas_healthy Replicas not in failure cooldown.\n")
		p("# TYPE mbbpd_shard_replicas_healthy gauge\n")
		p("mbbpd_shard_replicas_healthy %d\n", healthy)
	}

	p("# HELP mbbpd_request_duration_seconds Sweep request latency.\n")
	p("# TYPE mbbpd_request_duration_seconds histogram\n")
	for i, le := range latencyBuckets {
		p("mbbpd_request_duration_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(float64(le)/1000, 'g', -1, 64), s.Hist.Buckets[i])
	}
	p("mbbpd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", s.Hist.Count)
	p("mbbpd_request_duration_seconds_sum %s\n",
		strconv.FormatFloat(s.Hist.Sum.Seconds(), 'g', -1, 64))
	p("mbbpd_request_duration_seconds_count %d\n", s.Hist.Count)

	p("# HELP mbbpd_predictor_state_bits Modeled predictor storage cost by structure (Table 7 conventions).\n")
	p("# TYPE mbbpd_predictor_state_bits gauge\n")
	for _, sb := range []struct {
		label string
		v     int
	}{
		{"pht", m.stateBits.PHT}, {"bit", m.stateBits.BIT},
		{"select_table", m.stateBits.SelectTable}, {"target_array", m.stateBits.TargetArray},
	} {
		p("mbbpd_predictor_state_bits{structure=%q} %d\n", sb.label, sb.v)
	}

	p("# HELP mbbpd_pool_workers Simulation pool size.\n")
	p("# TYPE mbbpd_pool_workers gauge\n")
	p("mbbpd_pool_workers %d\n", s.Pool.Workers)
	p("# HELP mbbpd_pool_submits_total Jobs submitted to the pool.\n")
	p("# TYPE mbbpd_pool_submits_total counter\n")
	p("mbbpd_pool_submits_total %d\n", s.Pool.Submits)
	p("# HELP mbbpd_pool_claims_total Jobs claimed by workers, by claim path.\n")
	p("# TYPE mbbpd_pool_claims_total counter\n")
	p("mbbpd_pool_claims_total{mode=\"own\"} %d\n", s.Pool.OwnPops)
	p("mbbpd_pool_claims_total{mode=\"steal\"} %d\n", s.Pool.Steals)
	p("# HELP mbbpd_pool_parks_total Times a worker slept for lack of work.\n")
	p("# TYPE mbbpd_pool_parks_total counter\n")
	p("mbbpd_pool_parks_total %d\n", s.Pool.Parks)
	p("# HELP mbbpd_pool_queue_depth_max High-water mark of queued jobs.\n")
	p("# TYPE mbbpd_pool_queue_depth_max gauge\n")
	p("mbbpd_pool_queue_depth_max %d\n", s.Pool.MaxQueueDepth)
	p("# HELP mbbpd_pool_busy_seconds_total Time workers spent executing jobs.\n")
	p("# TYPE mbbpd_pool_busy_seconds_total counter\n")
	for i, d := range s.Pool.WorkerBusy {
		p("mbbpd_pool_busy_seconds_total{worker=\"%d\"} %s\n", i,
			strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
	}

	if s.Tap != nil {
		p("# HELP mbbpd_tap_blocks_total Fetched blocks observed by the engine tap.\n")
		p("# TYPE mbbpd_tap_blocks_total counter\n")
		p("mbbpd_tap_blocks_total %d\n", s.Tap.Blocks)
		p("# HELP mbbpd_tap_redirects_total Observed blocks that redirected the fetch stream.\n")
		p("# TYPE mbbpd_tap_redirects_total counter\n")
		p("mbbpd_tap_redirects_total %d\n", s.Tap.Redirects)
		p("# HELP mbbpd_tap_penalty_cycles_total Penalty cycles observed by the tap, by Table 3 kind.\n")
		p("# TYPE mbbpd_tap_penalty_cycles_total counter\n")
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			p("mbbpd_tap_penalty_cycles_total{kind=%q} %d\n", kindLabel(k), s.Tap.PenaltyCycles[k])
		}
		p("# HELP mbbpd_tap_penalty_events_total Penalty events observed by the tap, by Table 3 kind.\n")
		p("# TYPE mbbpd_tap_penalty_events_total counter\n")
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			p("mbbpd_tap_penalty_events_total{kind=%q} %d\n", kindLabel(k), s.Tap.PenaltyEvents[k])
		}
	}

	if s.H2P != nil {
		p("# HELP mbbpd_h2p_requests_total Sweep requests that asked for H2P attribution.\n")
		p("# TYPE mbbpd_h2p_requests_total counter\n")
		p("mbbpd_h2p_requests_total %d\n", s.H2P.Requests)
		p("# HELP mbbpd_h2p_penalty_total Penalty cycles attributed by H2P-enabled sweeps, by Table 3 kind.\n")
		p("# TYPE mbbpd_h2p_penalty_total counter\n")
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			p("mbbpd_h2p_penalty_total{kind=%q} %d\n", kindLabel(k), s.H2P.Kinds[k])
		}
		p("# HELP mbbpd_h2p_sites Distinct static blocks carrying attributed penalty.\n")
		p("# TYPE mbbpd_h2p_sites gauge\n")
		p("mbbpd_h2p_sites %d\n", s.H2P.Sites)
		p("# HELP mbbpd_h2p_top_block_penalty_cycles Penalty cycles of the worst attributed blocks.\n")
		p("# TYPE mbbpd_h2p_top_block_penalty_cycles gauge\n")
		for i, site := range s.H2P.Top {
			p("mbbpd_h2p_top_block_penalty_cycles{rank=\"%d\",addr=\"%d\",kind=%q} %d\n",
				i+1, site.Addr, kindLabel(site.Kind), site.Cycles)
		}
	}

	p("# HELP mbbpd_build_info Build identity; value is always 1.\n")
	p("# TYPE mbbpd_build_info gauge\n")
	p("mbbpd_build_info{go_version=%q,version=%q,revision=%q} 1\n",
		m.build.GoVersion, m.build.Version, m.build.Revision)
}
