package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// observe counts d in every bucket whose bound it does not exceed. The
// comparison is on durations, not whole milliseconds, so a 1.9 ms
// request stays out of the 1 ms bucket, as the Prometheus le (≤ bound)
// contract and the _sum require.
func (h *histogram) observe(d time.Duration) {
	h.mu.Lock()
	for i, le := range latencyBuckets {
		if d <= time.Duration(le)*time.Millisecond {
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

// metricSources are what a render reads besides the set's own
// counters. Each is read once per render; only shardSnap and tap may
// be nil.
type metricSources struct {
	queue       chan struct{} // the admission semaphore: len is in flight, cap the bound
	traceStats  func() flight.Stats
	resultStats func() flight.Stats
	poolStats   func() harness.PoolStats
	h2pSnap     func() *h2pSnapshot
	shardSnap   func() *shardSnapshot // nil unless shard mode
	tap         *obs.Counters         // nil when the engine tap is off
}

// metricsSet is the service's observability surface: its own request
// counters and latency histogram, plus the sources it reads at render
// time. Nothing here is in the process-global expvar registry, so
// several servers (tests!) coexist. GET /metrics builds one metric
// table per render (families) and writes it as JSON, or as Prometheus
// text exposition with ?format=prom.
type metricsSet struct {
	metricSources

	requestsTotal       atomic.Int64 // sweep requests received
	requestsOK          atomic.Int64 // completed 200s
	requestsRejected    atomic.Int64 // 429 backpressure rejections
	requestsBad         atomic.Int64 // 400 validation failures
	requestsCancelled   atomic.Int64 // client gone / deadline exceeded
	requestsErrored     atomic.Int64 // everything else (500s, 503s)
	requestsNotModified atomic.Int64 // 304 ETag revalidations
	jobPanics           atomic.Int64 // requests failed by a panicking pool job

	hist      *histogram
	stateBits core.StateBitsBreakdown
	build     buildInfo
}

func newMetricsSet(src metricSources) *metricsSet {
	m := &metricsSet{metricSources: src, hist: newHistogram(), build: readBuildInfo()}
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

// family is one metric, declared once: its Prometheus name, type and
// help, its place in the JSON document, its label names, and this
// render's samples. A family with no prom name is JSON only; one with
// no json path is Prometheus only.
type family struct {
	prom, typ, help string
	// json is the dotted path of the family's key in the JSON document.
	// A labelled family is an object there, keyed by label value;
	// a flat one spells each sample as a sibling key <path>_<value>.
	json   string
	flat   bool
	labels []string
	// samples are the family's series, in exposition order.
	samples []sample
}

// sample is one series: label values aligned with the family's label
// names, a name suffix (a histogram's _bucket, _sum, _count), and the
// value — an integer, a float64 (rendered shortest), or for JSON-only
// families any JSON value.
type sample struct {
	suffix string
	labels []string
	value  any
}

const (
	promCounter   = "counter"
	promGauge     = "gauge"
	promHistogram = "histogram"
)

// one is the sample of an unlabelled family.
func one(v any) []sample { return []sample{{value: v}} }

// labelled is a sample with label values.
func labelled(v any, labels ...string) sample { return sample{labels: labels, value: v} }

// byKind fills a counter family with one sample per Table 3 kind.
func byKind(f family, vals [metrics.NumKinds]uint64) family {
	f.typ, f.labels = promCounter, []string{"kind"}
	for k, v := range vals {
		f.samples = append(f.samples, labelled(v, kindLabel(metrics.Kind(k))))
	}
	return f
}

// kindLabel is a metrics.Kind as a label value: lower snake, no spaces.
func kindLabel(k metrics.Kind) string {
	return strings.ReplaceAll(k.String(), " ", "_")
}

// families is the metric table of one render, in exposition order. It
// reads each source once: the trace-cache stats in a single call (hits
// and misses of one instant; two reads could tear across a concurrent
// lookup), the histogram as one locked copy, the pool and tap counters
// in one pass of atomic loads.
func (m *metricsSet) families() []family {
	traces := m.traceStats()
	results := m.resultStats()
	hist := m.hist.snapshot()
	pool := m.poolStats()
	h2p := m.h2pSnap()
	inflight := len(m.queue)

	fams := []family{
		{prom: "mbbpd_requests_total", typ: promCounter, help: "Sweep requests received.",
			json: "requests_total", samples: one(m.requestsTotal.Load())},
		{prom: "mbbpd_request_outcomes_total", typ: promCounter, help: "Completed sweep requests by outcome.",
			json: "requests", flat: true, labels: []string{"outcome"}, samples: []sample{
				labelled(m.requestsOK.Load(), "ok"),
				labelled(m.requestsRejected.Load(), "rejected"),
				labelled(m.requestsBad.Load(), "bad"),
				labelled(m.requestsCancelled.Load(), "cancelled"),
				labelled(m.requestsErrored.Load(), "errored"),
				labelled(m.requestsNotModified.Load(), "not_modified"),
			}},
		{prom: "mbbpd_job_panics_total", typ: promCounter, help: "Sweep requests failed by a panicking pool job (answered 500).",
			json: "job_panics", samples: one(m.jobPanics.Load())},
		{prom: "mbbpd_inflight_requests", typ: promGauge, help: "Admitted sweep requests currently running.",
			json: "inflight", samples: one(inflight)},
		{json: "queue_depth", samples: one(inflight)},
		{prom: "mbbpd_queue_capacity", typ: promGauge, help: "Admission queue bound.",
			json: "queue_capacity", samples: one(cap(m.queue))},
		// A lookup that joined an in-flight capture counts as a hit:
		// the series counts every lookup that did not capture.
		{prom: "mbbpd_trace_cache_hits_total", typ: promCounter, help: "Trace cache lookups served from cache.",
			json: "trace_cache_hits", samples: one(traces.Hits + traces.Coalesced)},
		{prom: "mbbpd_trace_cache_misses_total", typ: promCounter, help: "Trace cache lookups that captured a trace.",
			json: "trace_cache_misses", samples: one(traces.Misses)},
		{prom: "mbbpd_result_cache_hits_total", typ: promCounter, help: "Sweep requests served from a completed result-cache entry.",
			json: "result_cache_hits", samples: one(results.Hits)},
		{prom: "mbbpd_result_cache_misses_total", typ: promCounter, help: "Result-cache entries computed (or proxied) fresh.",
			json: "result_cache_misses", samples: one(results.Misses)},
		{prom: "mbbpd_result_cache_coalesced_total", typ: promCounter, help: "Sweep entries that waited on an identical in-flight request.",
			json: "result_cache_coalesced", samples: one(results.Coalesced)},
		{prom: "mbbpd_result_cache_evictions_total", typ: promCounter, help: "Result-cache entries evicted for capacity.",
			json: "result_cache_evictions", samples: one(results.Evictions)},
	}

	if m.shardSnap != nil {
		sh := m.shardSnap()
		routes := family{prom: "mbbpd_shard_routes_total", typ: promCounter, help: "Sweep requests proxied to each replica.",
			json: "shard.routes", labels: []string{"replica"}}
		healthy := 0
		for _, r := range sh.Replicas {
			routes.samples = append(routes.samples, labelled(r.Routes, r.Addr))
			if r.Healthy {
				healthy++
			}
		}
		fams = append(fams, routes,
			family{prom: "mbbpd_shard_reroutes_total", typ: promCounter, help: "Proxy attempts routed past a key's owning replica.",
				json: "shard.reroutes", samples: one(sh.Reroutes)},
			family{prom: "mbbpd_shard_local_fallbacks_total", typ: promCounter, help: "Requests executed locally because no replica was reachable.",
				json: "shard.local_fallbacks", samples: one(sh.Fallbacks)},
			family{prom: "mbbpd_shard_replicas", typ: promGauge, help: "Configured replica count.",
				json: "shard.replicas", samples: one(len(sh.Replicas))},
			family{prom: "mbbpd_shard_replicas_healthy", typ: promGauge, help: "Replicas not in failure cooldown.",
				json: "shard.healthy", samples: one(healthy)})
	}

	duration := family{prom: "mbbpd_request_duration_seconds", typ: promHistogram, help: "Sweep request latency.",
		labels: []string{"le"}}
	latency := family{json: "job_latency_ms", labels: []string{"le"}}
	for i, n := range append(hist.Buckets, hist.Count) { // the count is the +Inf bucket
		le, key := "+Inf", "le_inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(float64(latencyBuckets[i])/1000, 'g', -1, 64)
			key = fmt.Sprintf("le_%dms", latencyBuckets[i])
		}
		duration.samples = append(duration.samples, sample{suffix: "_bucket", labels: []string{le}, value: n})
		latency.samples = append(latency.samples, labelled(n, key))
	}
	duration.samples = append(duration.samples,
		sample{suffix: "_sum", value: hist.Sum.Seconds()},
		sample{suffix: "_count", value: hist.Count})

	sb := m.stateBits
	var busy []sample
	for i, d := range pool.WorkerBusy {
		busy = append(busy, labelled(d.Seconds(), strconv.Itoa(i)))
	}
	fams = append(fams, duration, latency,
		family{json: "job_latency_count", samples: one(hist.Count)},
		family{json: "job_latency_sum_ms", samples: one(hist.Sum.Milliseconds())},
		family{prom: "mbbpd_predictor_state_bits", typ: promGauge, help: "Modeled predictor storage cost by structure (Table 7 conventions).",
			json: "state_bits", labels: []string{"structure"}, samples: []sample{
				labelled(sb.PHT, "pht"), labelled(sb.BIT, "bit"),
				labelled(sb.SelectTable, "select_table"), labelled(sb.TargetArray, "target_array"),
			}},
		family{json: "state_bits.total", samples: one(sb.Total())},
		family{prom: "mbbpd_pool_workers", typ: promGauge, help: "Simulation pool size.",
			json: "pool.workers", samples: one(pool.Workers)},
		family{prom: "mbbpd_pool_submits_total", typ: promCounter, help: "Jobs submitted to the pool.",
			json: "pool.submits", samples: one(pool.Submits)},
		family{prom: "mbbpd_pool_claims_total", typ: promCounter, help: "Jobs claimed by workers, by claim path.",
			labels: []string{"mode"}, samples: []sample{labelled(pool.OwnPops, "own"), labelled(pool.Steals, "steal")}},
		family{json: "pool.own_pops", samples: one(pool.OwnPops)},
		family{json: "pool.steals", samples: one(pool.Steals)},
		family{prom: "mbbpd_pool_parks_total", typ: promCounter, help: "Times a worker slept for lack of work.",
			json: "pool.parks", samples: one(pool.Parks)},
		family{prom: "mbbpd_pool_queue_depth_max", typ: promGauge, help: "High-water mark of queued jobs.",
			json: "pool.max_queue_depth", samples: one(pool.MaxQueueDepth)},
		family{prom: "mbbpd_pool_busy_seconds_total", typ: promCounter, help: "Time workers spent executing jobs.",
			labels: []string{"worker"}, samples: busy},
		family{json: "pool.busy_ms", samples: one(pool.BusyTotal().Milliseconds())})

	if m.tap != nil {
		t := m.tap.Snapshot()
		fams = append(fams,
			family{prom: "mbbpd_tap_blocks_total", typ: promCounter, help: "Fetched blocks observed by the engine tap.",
				json: "tap.blocks", samples: one(t.Blocks)},
			family{prom: "mbbpd_tap_redirects_total", typ: promCounter, help: "Observed blocks that redirected the fetch stream.",
				json: "tap.redirects", samples: one(t.Redirects)},
			byKind(family{prom: "mbbpd_tap_penalty_cycles_total", help: "Penalty cycles observed by the tap, by Table 3 kind.",
				json: "tap.penalty_cycles"}, t.PenaltyCycles),
			byKind(family{prom: "mbbpd_tap_penalty_events_total", help: "Penalty events observed by the tap, by Table 3 kind.",
				json: "tap.penalty_events"}, t.PenaltyEvents))
	}

	top := family{prom: "mbbpd_h2p_top_block_penalty_cycles", typ: promGauge, help: "Penalty cycles of the worst attributed blocks.",
		labels: []string{"rank", "addr", "kind"}}
	topJSON := make([]map[string]any, 0, len(h2p.Top))
	for i, site := range h2p.Top {
		kind := kindLabel(site.Kind)
		top.samples = append(top.samples, labelled(site.Cycles, strconv.Itoa(i+1), strconv.FormatUint(uint64(site.Addr), 10), kind))
		topJSON = append(topJSON, map[string]any{"addr": site.Addr, "kind": kind, "events": site.Events, "cycles": site.Cycles})
	}
	return append(fams,
		family{prom: "mbbpd_h2p_requests_total", typ: promCounter, help: "Sweep requests that asked for H2P attribution.",
			json: "h2p.requests", samples: one(h2p.Requests)},
		family{json: "h2p.blocks", samples: one(h2p.Blocks)},
		byKind(family{prom: "mbbpd_h2p_penalty_total", help: "Penalty cycles attributed by H2P-enabled sweeps, by Table 3 kind.",
			json: "h2p.penalty_cycles"}, h2p.Kinds),
		family{prom: "mbbpd_h2p_sites", typ: promGauge, help: "Distinct static blocks carrying attributed penalty.",
			json: "h2p.sites", samples: one(h2p.Sites)},
		top,
		family{json: "h2p.top_blocks", samples: one(topJSON)},
		family{prom: "mbbpd_build_info", typ: promGauge, help: "Build identity; value is always 1.",
			labels:  []string{"go_version", "version", "revision"},
			samples: []sample{labelled(1, m.build.GoVersion, m.build.Version, m.build.Revision)}})
}

// handler serves the metric table: JSON by default (the document the
// CLI and tests consume), Prometheus text exposition with ?format=prom.
func (m *metricsSet) handler(w http.ResponseWriter, r *http.Request) {
	fams := m.families()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, fams)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	writeJSON(w, fams)
}

// writeJSON renders the families with a json path as one indented
// object; dots in a path nest groups.
func writeJSON(w io.Writer, fams []family) {
	doc := map[string]any{}
	for _, f := range fams {
		if f.json == "" {
			continue
		}
		path := strings.Split(f.json, ".")
		dir, key := doc, path[len(path)-1]
		for _, group := range path[:len(path)-1] {
			dir = subObject(dir, group)
		}
		switch {
		case len(f.labels) == 0:
			dir[key] = f.samples[0].value
		case f.flat:
			for _, s := range f.samples {
				dir[key+"_"+s.labels[0]] = s.value
			}
		default:
			obj := subObject(dir, key)
			for _, s := range f.samples {
				obj[s.labels[0]] = s.value
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// subObject returns m[key] as an object, creating it if absent.
func subObject(m map[string]any, key string) map[string]any {
	obj, ok := m[key].(map[string]any)
	if !ok {
		obj = map[string]any{}
		m[key] = obj
	}
	return obj
}

// writeProm renders the families with a prom name in Prometheus text
// exposition format (version 0.0.4): a HELP and a TYPE line, then the
// family's samples.
func writeProm(w io.Writer, fams []family) {
	for _, f := range fams {
		if f.prom == "" {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.prom, f.help, f.prom, f.typ)
		for _, s := range f.samples {
			io.WriteString(w, f.prom+s.suffix)
			sep := "{"
			for i, v := range s.labels {
				fmt.Fprintf(w, "%s%s=%q", sep, f.labels[i], v)
				sep = ","
			}
			if len(s.labels) > 0 {
				io.WriteString(w, "}")
			}
			if v, ok := s.value.(float64); ok {
				fmt.Fprintf(w, " %s\n", strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				fmt.Fprintf(w, " %d\n", s.value)
			}
		}
	}
}
