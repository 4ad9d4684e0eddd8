package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbbp/internal/flight"
)

// TestHistogramConcurrentConsistency hammers the latency histogram from
// writer goroutines while readers snapshot it, and checks every
// snapshot is internally consistent: cumulative buckets are monotone
// non-decreasing, the implicit +Inf bucket equals the count, and
// sum/count never go backwards between snapshots. Run under -race this
// also proves the locking. (The earlier lock-free histogram failed the
// monotonicity check: a reader could see bucket i incremented but not
// yet bucket i+1.)
func TestHistogramConcurrentConsistency(t *testing.T) {
	h := newHistogram()
	const writers, perWriter = 8, 500
	durations := []time.Duration{
		500 * time.Microsecond, 3 * time.Millisecond, 40 * time.Millisecond,
		700 * time.Millisecond, 70 * time.Second,
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prevCount, prevSum uint64
			for {
				s := h.snapshot()
				for i := 1; i < len(s.Buckets); i++ {
					if s.Buckets[i] < s.Buckets[i-1] {
						t.Errorf("bucket %d (%d) below bucket %d (%d): not monotone",
							i, s.Buckets[i], i-1, s.Buckets[i-1])
					}
				}
				if last := s.Buckets[len(s.Buckets)-1]; last > s.Count {
					t.Errorf("largest bucket %d exceeds +Inf/count %d", last, s.Count)
				}
				if s.Count < prevCount || uint64(s.Sum) < prevSum {
					t.Errorf("snapshot went backwards: count %d<%d or sum %d<%d",
						s.Count, prevCount, s.Sum, prevSum)
				}
				prevCount, prevSum = s.Count, uint64(s.Sum)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				h.observe(durations[(w+i)%len(durations)])
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	s := h.snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	var wantSum time.Duration
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			wantSum += durations[(w+i)%len(durations)]
		}
	}
	if s.Sum != wantSum {
		t.Errorf("final sum = %v, want %v", s.Sum, wantSum)
	}
	// 70s observations land only in +Inf: the largest finite bucket
	// must be strictly below count.
	if s.Buckets[len(s.Buckets)-1] >= s.Count {
		t.Errorf("out-of-range observations not confined to +Inf: %d >= %d",
			s.Buckets[len(s.Buckets)-1], s.Count)
	}
}

// TestHistogramBucketsCompareDurations is the regression test for
// buckets that compared whole milliseconds with each bound: a 1.9 ms
// request landed in the 1 ms bucket and a 5.999 ms one in the 5 ms
// bucket, breaking the Prometheus le (≤ bound) contract and
// disagreeing with _sum.
func TestHistogramBucketsCompareDurations(t *testing.T) {
	if !slices.Equal(latencyBuckets[:3], []int64{1, 5, 10}) {
		t.Fatalf("latencyBuckets start %v, want [1 5 10]", latencyBuckets[:3])
	}
	h := newHistogram()
	h.observe(1900 * time.Microsecond)
	h.observe(5999 * time.Microsecond)
	s := h.snapshot()
	if got := s.Buckets[:3]; !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Errorf("le 1ms/5ms/10ms buckets = %v, want [0 1 2]", got)
	}
}

// TestMetricsSnapshotSingleCacheRead is the regression test for the
// torn trace-cache read: the old code sampled hits and misses through
// two separate expvar.Funcs, i.e. two cacheStats() calls per render,
// with no guarantee they described the same instant. The stub below
// returns an equal, ever-incrementing pair per call — any render that
// calls it twice reports hits != misses.
func TestMetricsSnapshotSingleCacheRead(t *testing.T) {
	var calls atomic.Uint64
	m := goldenMetricsSet(false, false)
	m.traceStats = func() flight.Stats {
		n := calls.Add(1)
		return flight.Stats{Hits: n, Misses: n}
	}

	const renders = 6
	for i := 0; i < renders; i++ {
		var hits, misses float64
		w := httptest.NewRecorder()
		if i%2 == 0 {
			m.handler(w, httptest.NewRequest("GET", "/metrics", nil))
			var doc map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			hits, misses = doc["trace_cache_hits"].(float64), doc["trace_cache_misses"].(float64)
		} else {
			m.handler(w, httptest.NewRequest("GET", "/metrics?format=prom", nil))
			series := promSeries(t, w.Body.String())
			hits, misses = series["mbbpd_trace_cache_hits_total"], series["mbbpd_trace_cache_misses_total"]
		}
		if hits != misses || hits == 0 {
			t.Fatalf("render %d tore the cache stats: hits=%v misses=%v (two reads)", i, hits, misses)
		}
	}
	if got := calls.Load(); got != renders {
		t.Errorf("cacheStats called %d times over %d renders, want %d", got, renders, renders)
	}
}

func getPath(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// promSeries maps each sample line of an exposition body, name and
// labels, to its value.
func promSeries(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("non-numeric value in %q: %v", line, err)
			continue
		}
		series[name] = v
	}
	return series
}

// checkExposition checks an exposition body's structure against the
// metric table it was rendered from: the table's Prometheus families
// appear in order, each with exactly one HELP then one TYPE line before
// its samples; every sample belongs to the family declared above it
// (a histogram's _bucket, _sum and _count included), each family has
// as many samples as the table holds, and no series appears twice.
func checkExposition(t *testing.T, body string, fams []family) {
	t.Helper()
	var want []string
	wantSamples := map[string]int{}
	for _, f := range fams {
		if f.prom != "" {
			want = append(want, f.prom)
			wantSamples[f.prom] = len(f.samples)
		}
	}
	var got []string
	help := map[string]int{}
	typ := map[string]string{}
	samples := map[string]int{}
	seen := map[string]bool{}
	var helped, cur string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helped, cur = fields[2], ""
			if help[helped]++; help[helped] > 1 {
				t.Errorf("family %s has a second HELP line", helped)
			}
		case strings.HasPrefix(line, "# TYPE "):
			name := fields[2]
			if name != helped {
				t.Errorf("TYPE line of %s does not follow its HELP line", name)
			}
			if _, dup := typ[name]; dup {
				t.Errorf("family %s has a second TYPE line", name)
			}
			typ[name], cur, helped = fields[3], name, ""
			got = append(got, name)
		default:
			series, _, _ := strings.Cut(line, " ")
			name, _, _ := strings.Cut(series, "{")
			suffix, inFamily := strings.CutPrefix(name, cur)
			if cur == "" || !inFamily ||
				suffix != "" && !(typ[cur] == promHistogram && slices.Contains([]string{"_bucket", "_sum", "_count"}, suffix)) {
				t.Errorf("sample %q outside its family (last declared: %q)", line, cur)
				continue
			}
			if seen[series] {
				t.Errorf("series %s appears twice", series)
			}
			seen[series] = true
			samples[cur]++
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("exposition families\n got %v\nwant %v (the table)", got, want)
	}
	for name, n := range wantSamples {
		if samples[name] != n {
			t.Errorf("family %s has %d samples, the table %d", name, samples[name], n)
		}
	}
}

// TestMetricsPromExposition runs a sweep and checks the Prometheus text
// rendering: the structure of the plain server's body and of the
// sharded and tapped fixtures against their metric tables, counters
// that move, and the histogram invariants.
func TestMetricsPromExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := postSweep(t, s.Handler(), SweepRequest{Programs: []string{"li"}, Instructions: 5_000}, ""); w.Code != 200 {
		t.Fatalf("sweep = %d", w.Code)
	}

	w := getPath(t, s, "/metrics?format=prom")
	if w.Code != 200 {
		t.Fatalf("metrics?format=prom = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body := w.Body.String()
	checkExposition(t, body, s.metrics.families())
	for _, v := range []struct {
		name            string
		sharded, tapped bool
	}{{"sharded", true, false}, {"tapped", false, true}, {"sharded+tapped", true, true}} {
		t.Run(v.name, func(t *testing.T) {
			m := goldenMetricsSet(v.sharded, v.tapped)
			w := httptest.NewRecorder()
			m.handler(w, httptest.NewRequest("GET", "/metrics?format=prom", nil))
			checkExposition(t, w.Body.String(), m.families())
		})
	}

	series := promSeries(t, body)
	if series["mbbpd_requests_total"] < 1 || series[`mbbpd_request_outcomes_total{outcome="ok"}`] < 1 {
		t.Error("request counters did not move")
	}
	if series["mbbpd_pool_submits_total"] < 1 {
		t.Error("pool submits did not move")
	}

	// Histogram invariants in the exposition itself.
	inf := series[`mbbpd_request_duration_seconds_bucket{le="+Inf"}`]
	count := series["mbbpd_request_duration_seconds_count"]
	if inf != count || count < 1 {
		t.Errorf("+Inf bucket %v != count %v", inf, count)
	}
	var prev float64
	for _, le := range latencyBuckets {
		key := `mbbpd_request_duration_seconds_bucket{le="` +
			strconv.FormatFloat(float64(le)/1000, 'g', -1, 64) + `"}`
		v, ok := series[key]
		if !ok {
			t.Errorf("missing bucket %s", key)
			continue
		}
		if v < prev {
			t.Errorf("bucket %s = %v below previous %v: not cumulative", key, v, prev)
		}
		prev = v
	}
	if prev > inf {
		t.Errorf("largest finite bucket %v exceeds +Inf %v", prev, inf)
	}
}

// TestMetricFamiliesDocumented checks that the Prometheus table in
// docs/ARCHITECTURE.md lists, one row each, exactly the families a
// sharded, tapped server emits.
func TestMetricFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cell, ok := strings.CutPrefix(line, "| `mbbpd_")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut("mbbpd_"+cell, "`")
		name, _, _ = strings.Cut(name, "{")
		if documented[name] {
			t.Errorf("docs/ARCHITECTURE.md lists %s twice", name)
		}
		documented[name] = true
	}
	emitted := map[string]bool{}
	for _, f := range goldenMetricsSet(true, true).families() {
		if f.prom == "" {
			continue
		}
		emitted[f.prom] = true
		if !documented[f.prom] {
			t.Errorf("family %s is missing from the metric table in docs/ARCHITECTURE.md", f.prom)
		}
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("docs/ARCHITECTURE.md documents %s, which the server does not emit", name)
		}
	}
}

// TestRequestStagesTrailer checks the per-request stage timeline
// arrives as the declared X-Request-Stages trailer with all five
// stages, in order.
func TestRequestStagesTrailer(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postSweep(t, s.Handler(), SweepRequest{Programs: []string{"li"}, Instructions: 5_000}, "")
	if w.Code != 200 {
		t.Fatalf("sweep = %d", w.Code)
	}
	res := w.Result()
	got := res.Trailer.Get(stagesTrailer)
	if got == "" {
		t.Fatalf("no %s trailer; declared trailers: %q", stagesTrailer, res.Header.Get("Trailer"))
	}
	last := -1
	for _, stage := range []string{"admit", "queue", "capture", "simulate", "render"} {
		i := strings.Index(got, stage+";dur=")
		if i < 0 {
			t.Errorf("trailer %q missing stage %s", got, stage)
			continue
		}
		if i < last {
			t.Errorf("trailer %q: stage %s out of order", got, stage)
		}
		last = i
	}
}

// TestDebugVars checks the standard expvar handler is mounted: the
// process-global view (memstats, cmdline), distinct from /metrics.
func TestDebugVars(t *testing.T) {
	s := newTestServer(t, Config{})
	w := getPath(t, s, "/debug/vars")
	if w.Code != 200 {
		t.Fatalf("/debug/vars = %d", w.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	for _, key := range []string{"memstats", "cmdline"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
}

// TestTapCountersExposed runs a sweep on a tap-enabled server and
// checks the tap aggregates reach both metric renderings — and that the
// tap does not change the response body.
func TestTapCountersExposed(t *testing.T) {
	plain := newTestServer(t, Config{})
	tapped := newTestServer(t, Config{Tap: true})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	wantBody := postSweep(t, plain.Handler(), req, "")
	gotBody := postSweep(t, tapped.Handler(), req, "")
	if wantBody.Code != 200 || gotBody.Code != 200 {
		t.Fatalf("sweeps = %d, %d", wantBody.Code, gotBody.Code)
	}
	if gotBody.Body.String() != wantBody.Body.String() {
		t.Error("tap changed the sweep response body")
	}

	var m map[string]any
	if err := json.Unmarshal(getPath(t, tapped, "/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	tap, ok := m["tap"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing tap group: %v", m)
	}
	if tap["blocks"].(float64) <= 0 {
		t.Errorf("tap blocks = %v, want > 0", tap["blocks"])
	}
	if _, err := json.Marshal(tap["penalty_cycles"]); err != nil {
		t.Errorf("tap penalty_cycles not renderable: %v", err)
	}

	prom := getPath(t, tapped, "/metrics?format=prom").Body.String()
	if !strings.Contains(prom, "mbbpd_tap_blocks_total ") {
		t.Error("prom exposition missing tap series")
	}
	if strings.Contains(getPath(t, plain, "/metrics?format=prom").Body.String(), "mbbpd_tap_blocks_total") {
		t.Error("untapped server exposes tap series")
	}

	var plainM map[string]any
	if err := json.Unmarshal(getPath(t, plain, "/metrics").Body.Bytes(), &plainM); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainM["tap"]; ok {
		t.Error("untapped server has tap group in JSON metrics")
	}
}

// TestHealthzBuildInfo pins the second healthz line: build identity
// from runtime/debug.ReadBuildInfo.
func TestHealthzBuildInfo(t *testing.T) {
	s := newTestServer(t, Config{})
	w := getPath(t, s, "/healthz")
	if w.Code != 200 {
		t.Fatalf("healthz = %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("healthz has %d lines, want 2: %q", len(lines), w.Body.String())
	}
	if !strings.HasPrefix(lines[1], "build go") {
		t.Errorf("healthz build line = %q, want \"build go...\"", lines[1])
	}
}

// TestMetricsConcurrentWithSweeps scrapes both renderings while sweeps
// run; with -race this pins the snapshot synchronization end to end.
func TestMetricsConcurrentWithSweeps(t *testing.T) {
	s := newTestServer(t, Config{Tap: true})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					getPath(t, s, "/metrics")
					getPath(t, s, "/metrics?format=prom")
				}
			}
		}()
	}
	var sweeps sync.WaitGroup
	for i := 0; i < 4; i++ {
		sweeps.Add(1)
		go func() {
			defer sweeps.Done()
			if w := postSweep(t, s.Handler(), req, ""); w.Code != 200 {
				t.Errorf("sweep = %d", w.Code)
			}
		}()
	}
	sweeps.Wait()
	close(stop)
	scrapers.Wait()
}
