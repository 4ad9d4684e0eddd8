package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Logger = quietLogger()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func configJSON(t *testing.T, cfg core.Config) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSweep(t *testing.T, h http.Handler, req SweepRequest, query string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/sweep"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// postSweepQuiet is postSweep for worker goroutines: no testing.T, so
// callers inspect the recorder and report failures on their own channel.
func postSweepQuiet(h http.Handler, req SweepRequest) *httptest.ResponseRecorder {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // static request literals; cannot fail
	}
	r := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// pinnedConfigs is the differential set: the paper default plus the
// main §3/§5 variants, covering both target arrays, both selection
// modes and the N-block extension.
func pinnedConfigs() []core.Config {
	def := core.DefaultConfig()

	nearBTB := core.DefaultConfig()
	nearBTB.NearBlock = true
	nearBTB.TargetArray = core.BTB
	nearBTB.TargetEntries = 64

	doubleSel := core.DefaultConfig()
	doubleSel.Selection = metrics.DoubleSelection
	doubleSel.NumSTs = 8

	ext4 := core.DefaultConfig()
	ext4.NumBlocks = 4

	single := core.DefaultConfig()
	single.Mode = core.SingleBlock

	return []core.Config{def, nearBTB, doubleSel, ext4, single}
}

// TestSweepDifferential pins the service byte-for-byte to the serial
// harness reference: for every pinned configuration, the HTTP response
// body must equal MarshalResponse(BuildSweepResponse(...)) computed
// from a harness.Serial() run of the same request.
func TestSweepDifferential(t *testing.T) {
	s := newTestServer(t, Config{})
	opts := harness.Options{Instructions: 25_000, Programs: []string{"li", "go", "swim"}}
	ts, err := harness.LoadTracesOn(harness.Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}

	for i, cfg := range pinnedConfigs() {
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) {
			ref, err := harness.RunConfigOn(harness.Serial(), ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MarshalResponse(BuildSweepResponse(cfg, opts, ref))
			if err != nil {
				t.Fatal(err)
			}

			w := postSweep(t, s.Handler(), SweepRequest{
				Config:       configJSON(t, cfg),
				Programs:     opts.Programs,
				Instructions: opts.Instructions,
			}, "")
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("server body differs from serial reference\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestSweepMultiConfigDifferential pins the batched endpoint: a
// multi-config request must return a MultiSweepResponse whose every
// entry is byte-identical to the pre-lane single-config path (a
// harness.Serial() per-config run of the same request), while the
// trace cache records exactly one capture per program — the whole
// point of lane batching is that N configurations cost one trace walk,
// not N.
func TestSweepMultiConfigDifferential(t *testing.T) {
	s := newTestServer(t, Config{})
	opts := harness.Options{Instructions: 25_000, Programs: []string{"li", "swim"}}
	ts, err := harness.LoadTracesOn(harness.Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := pinnedConfigs()
	want := MultiSweepResponse{}
	raws := make([]json.RawMessage, 0, len(cfgs))
	for _, cfg := range cfgs {
		ref, err := harness.RunConfigOn(harness.Serial(), ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Sweeps = append(want.Sweeps, BuildSweepResponse(cfg, opts, ref))
		raws = append(raws, configJSON(t, cfg))
	}
	wantBody, err := MarshalMultiResponse(want)
	if err != nil {
		t.Fatal(err)
	}

	w := postSweep(t, s.Handler(), SweepRequest{
		Configs:      raws,
		Programs:     opts.Programs,
		Instructions: opts.Instructions,
	}, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, wantBody) {
		t.Errorf("multi-config body differs from per-config serial reference\ngot:  %s\nwant: %s", got, wantBody)
	}

	// One capture per program, no matter how many configurations rode
	// the request; /metrics carries the same counters.
	st := s.cache.Stats()
	hits, misses := st.Hits, st.Misses
	if misses != uint64(len(opts.Programs)) {
		t.Errorf("cache misses = %d, want %d (one capture per program, not per config)",
			misses, len(opts.Programs))
	}
	if hits != 0 {
		t.Errorf("cache hits = %d, want 0 on a cold cache", hits)
	}
	mw := httptest.NewRecorder()
	s.Handler().ServeHTTP(mw, httptest.NewRequest("GET", "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(mw.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if got := m["trace_cache_misses"].(float64); got != float64(len(opts.Programs)) {
		t.Errorf("/metrics trace_cache_misses = %v, want %d", got, len(opts.Programs))
	}
}

// TestSweepMultiConfigRejections pins the multi-config validation
// surface: mutually exclusive fields, per-entry validation with the
// index named, and no NDJSON streaming of batches.
func TestSweepMultiConfigRejections(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	def := configJSON(t, core.DefaultConfig())

	w := postSweep(t, h, SweepRequest{Config: def, Configs: []json.RawMessage{def}}, "")
	if w.Code != http.StatusBadRequest {
		t.Errorf("config+configs: status = %d, want 400", w.Code)
	}

	w = postSweep(t, h, SweepRequest{
		Configs:  []json.RawMessage{def, json.RawMessage(`{"NumSTs":3}`)},
		Programs: []string{"li"},
	}, "")
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad entry: status = %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "configs[1]") {
		t.Errorf("bad entry error does not name the index: %s", w.Body.String())
	}

	w = postSweep(t, h, SweepRequest{
		Configs:      []json.RawMessage{def},
		Programs:     []string{"li"},
		Instructions: 5_000,
	}, "?stream=ndjson")
	if w.Code != http.StatusBadRequest {
		t.Errorf("multi+stream: status = %d, want 400; body %s", w.Code, w.Body.String())
	}
}

// TestSweepStreamNDJSON checks the streaming variant: one line per
// program in suite order, then an aggregates line, all agreeing with
// the serial reference.
func TestSweepStreamNDJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	opts := harness.Options{Instructions: 20_000, Programs: []string{"li", "swim"}}
	cfg := core.DefaultConfig()

	w := postSweep(t, s.Handler(), SweepRequest{
		Programs:     opts.Programs,
		Instructions: opts.Instructions,
	}, "?stream=ndjson")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(opts.Programs)+1 {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(opts.Programs)+1)
	}

	ts, err := harness.LoadTracesOn(harness.Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := harness.RunConfigOn(harness.Serial(), ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range opts.Programs {
		var line struct {
			Program string        `json:"program"`
			Result  ProgramResult `json:"result"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if line.Program != name {
			t.Errorf("line %d: program %q, want %q", i, line.Program, name)
		}
		if line.Result.Result != ref.Per[name] {
			t.Errorf("%s: streamed counters differ from serial reference", name)
		}
	}
	var final struct {
		Aggregates map[string]ProgramResult `json:"aggregates"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final line: %v", err)
	}
	if final.Aggregates["CINT95"].Result != ref.Int || final.Aggregates["CFP95"].Result != ref.FP {
		t.Error("streamed aggregates differ from serial reference")
	}
}

// TestBackpressure429 fills the queue with a request parked in the
// admitted hook and checks overflow requests get 429 + Retry-After
// without disturbing the admitted one.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(context.Context) {
		once.Do(func() { close(admitted) })
		<-release
	}

	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	firstDone := make(chan *httptest.ResponseRecorder)
	go func() { firstDone <- postSweep(t, s.Handler(), req, "") }()
	<-admitted

	const overflow = 8
	codes := make(chan int, overflow)
	var wg sync.WaitGroup
	for i := 0; i < overflow; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- postSweep(t, s.Handler(), req, "").Code
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("overflow request got %d, want 429", code)
		}
	}

	close(release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Errorf("admitted request got %d, want 200; body %s", w.Code, w.Body.String())
	}
	if got := s.metrics.requestsRejected.Load(); got != overflow {
		t.Errorf("requests_rejected = %d, want %d", got, overflow)
	}
}

// TestRetryAfterHeader pins the backpressure contract detail.
func TestRetryAfterHeader(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(context.Context) {
		once.Do(func() { close(admitted) })
		<-release
	}
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	done := make(chan struct{})
	go func() { postSweep(t, s.Handler(), req, ""); close(done) }()
	<-admitted
	w := postSweep(t, s.Handler(), req, "")
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Errorf("overflow response: code %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
	close(release)
	<-done
}

// TestCancellationMidJob cancels the request context once the sweep is
// admitted and running; the handler must return promptly with the
// cancellation accounted.
func TestCancellationMidJob(t *testing.T) {
	s := newTestServer(t, Config{})
	admitted := make(chan struct{})
	// Park the admitted request until its context dies, so the cancel
	// deterministically precedes the sweep work.
	s.hookAdmitted = func(ctx context.Context) {
		close(admitted)
		<-ctx.Done()
	}

	body, err := json.Marshal(SweepRequest{Programs: []string{"li"}, Instructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()

	handlerDone := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, r)
		close(handlerDone)
	}()
	<-admitted
	cancel()

	select {
	case <-handlerDone:
	case <-time.After(20 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}
	if w.Code != 499 {
		t.Errorf("cancelled request status = %d, want 499", w.Code)
	}
	if got := s.metrics.requestsCancelled.Load(); got != 1 {
		t.Errorf("requests_cancelled = %d, want 1", got)
	}
}

// TestGracefulShutdownDrains starts a sweep, begins shutdown, and
// checks: the in-flight sweep completes with 200, new sweeps are
// refused with 503, and Shutdown returns only after the drain.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := Config{QueueDepth: 4, Logger: quietLogger()}
	s, err := New(cfg) // no cleanup helper: this test owns Shutdown
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// Park only the FIRST admitted request; probes that squeeze in
	// before the drain flag flips must complete, or the probe loop
	// below would block on its own parked request.
	s.hookAdmitted = func(context.Context) {
		parked := false
		once.Do(func() { parked = true; close(admitted) })
		if parked {
			<-release
		}
	}

	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	firstDone := make(chan *httptest.ResponseRecorder)
	go func() { firstDone <- postSweep(t, s.Handler(), req, "") }()
	<-admitted

	shutdownDone := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining: new work refused, health reports down.
	deadline := time.After(5 * time.Second)
	for {
		w := postSweep(t, s.Handler(), req, "")
		if w.Code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("draining server still admits sweeps")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if w := httptest.NewRecorder(); true {
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining = %d, want 503", w.Code)
		}
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before drain: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Errorf("in-flight sweep got %d during drain, want 200", w.Code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{MaxInstructions: 100_000})
	h := s.Handler()

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"unknown program", `{"programs":["nonesuch"]}`},
		{"over limit", `{"instructions":200000}`},
		{"unknown config field", `{"config":{"Wibble":1}}`},
		{"invalid config", `{"config":{"NumSTs":3}}`},
		{"unknown predictor kind", `{"config":{"Predictor":7}}`},
		{"tage knobs on paper predictor", `{"config":{"TAGE":{"Tables":4}}}`},
		{"tage with multiple phts", `{"config":{"Predictor":1,"NumPHTs":4}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400; body %s", w.Code, w.Body.String())
			}
		})
	}

	// The typed field error surfaces in the error document.
	r := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(`{"config":{"NumSTs":3}}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var doc struct{ Error, Field string }
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Field != "NumSTs" {
		t.Errorf("error field = %q, want NumSTs (error: %s)", doc.Field, doc.Error)
	}

	// A bad predictor kind names its field too.
	r = httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(`{"config":{"Predictor":7}}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Field != "Predictor" {
		t.Errorf("error field = %q, want Predictor (error: %s)", doc.Field, doc.Error)
	}
}

// TestOversizedConfigRejected: configs that pass JSON decoding but ask
// New for more memory than a host has, or for a geometry a constructor
// panics on, are 400s naming the field, and the server keeps answering
// afterwards. Built, the RASSize probe is a fatal out-of-memory error
// no recover can catch.
func TestOversizedConfigRejected(t *testing.T) {
	s := newTestServer(t, Config{MaxInstructions: 100_000})
	h := s.Handler()
	for _, tc := range []struct{ config, field string }{
		{`{"RASSize":1099511627776}`, "RASSize"},
		{`{"TargetEntries":1099511627776}`, "TargetEntries"},
		{`{"BITEntries":1099511627776}`, "BITEntries"},
		{`{"ICacheLines":1099511627776,"ICacheMissPenalty":1}`, "ICacheLines"},
		{`{"HistoryBits":26,"NumPHTs":64}`, "HistoryBits"},
		{`{"NumPHTs":1099511627776}`, "NumPHTs"},
		{`{"NumSTs":1099511627776}`, "NumSTs"},
		{`{"Geometry":{"BlockWidth":128,"LineSize":128}}`, "Geometry.BlockWidth"},
		{`{"Geometry":{"LineSize":1099511627776}}`, "Geometry.LineSize"},
	} {
		body := `{"programs":["li"],"instructions":20000,"config":` + tc.config + `}`
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", tc.config, w.Code, w.Body.String())
			continue
		}
		var doc struct{ Error, Field string }
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Field != tc.field {
			t.Errorf("%s: error field = %q, want %s (error: %s)", tc.config, doc.Field, tc.field, doc.Error)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz after the rejections = %d, want 200", w.Code)
	}
}

// TestPredictorsEndpoint checks strategy discovery: both registered
// families, kind order, defaults present.
func TestPredictorsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/predictors", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("predictors = %d", w.Code)
	}
	var doc struct {
		Predictors []struct {
			Kind        int            `json:"kind"`
			Name        string         `json:"name"`
			Description string         `json:"description"`
			Defaults    map[string]any `json:"defaults"`
		} `json:"predictors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Predictors) != 2 {
		t.Fatalf("predictors = %+v, want 2 entries", doc.Predictors)
	}
	if doc.Predictors[0].Name != "paper" || doc.Predictors[1].Name != "tage" {
		t.Errorf("names = %q, %q", doc.Predictors[0].Name, doc.Predictors[1].Name)
	}
	for _, p := range doc.Predictors {
		if p.Description == "" || len(p.Defaults) == 0 {
			t.Errorf("%s: missing description or defaults: %+v", p.Name, p)
		}
	}
	// A sweep with the discovered TAGE kind runs and echoes the config.
	resp := postSweep(t, s.Handler(), SweepRequest{
		Config:       json.RawMessage(`{"Predictor":1,"Mode":0}`),
		Programs:     []string{"li"},
		Instructions: 5_000,
	}, "")
	if resp.Code != http.StatusOK {
		t.Fatalf("tage sweep = %d: %s", resp.Code, resp.Body.String())
	}
	var sr SweepResponse
	if err := json.Unmarshal(resp.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Config.Predictor != core.PredictorTAGE {
		t.Errorf("echoed predictor = %v, want tage", sr.Config.Predictor)
	}
}

func TestAuxEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/workloads", nil))
	var wl struct{ Workloads, Int, FP []string }
	if err := json.Unmarshal(w.Body.Bytes(), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) != 18 || len(wl.Int) != 8 || len(wl.FP) != 10 {
		t.Errorf("workloads = %d/%d/%d, want 18/8/10", len(wl.Workloads), len(wl.Int), len(wl.FP))
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}

	// Run one sweep, then check the metrics document moved.
	if w := postSweep(t, h, SweepRequest{Programs: []string{"li"}, Instructions: 5_000}, ""); w.Code != 200 {
		t.Fatalf("sweep = %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, w.Body.String())
	}
	for _, key := range []string{"requests_total", "requests_ok", "queue_capacity",
		"trace_cache_hits", "trace_cache_misses", "job_latency_ms", "job_latency_count",
		"state_bits"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if sb, ok := m["state_bits"].(map[string]any); !ok || sb["total"].(float64) <= 0 {
		t.Errorf("state_bits breakdown missing or empty: %v", m["state_bits"])
	}
	if m["requests_total"].(float64) < 1 || m["requests_ok"].(float64) < 1 {
		t.Errorf("request counters did not move: %v", m)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if w.Code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", w.Code)
	}
}

// TestTraceCacheSharing: captured traces are shared across distinct
// sweeps over the same programs. A repeat of an *identical* request no
// longer reaches the trace layer at all (the result cache answers it),
// so the second request here varies the config: same programs, new
// simulation, traces served from cache.
func TestTraceCacheSharing(t *testing.T) {
	s := newTestServer(t, Config{})
	first := SweepRequest{Programs: []string{"li", "go"}, Instructions: 10_000}
	if w := postSweep(t, s.Handler(), first, ""); w.Code != 200 {
		t.Fatalf("first sweep = %d", w.Code)
	}
	other := core.DefaultConfig()
	other.HistoryBits = 6
	second := SweepRequest{Config: configJSON(t, other), Programs: []string{"li", "go"}, Instructions: 10_000}
	if w := postSweep(t, s.Handler(), second, ""); w.Code != 200 {
		t.Fatalf("second sweep = %d", w.Code)
	}
	st := s.cache.Stats()
	hits, misses := st.Hits, st.Misses
	if misses != 2 {
		t.Errorf("trace cache misses = %d, want 2 (one per program)", misses)
	}
	if hits != 2 {
		t.Errorf("trace cache hits = %d, want 2 (second config reused both traces)", hits)
	}

	// And the identical repeat: answered by the result cache, trace
	// stats untouched.
	w := postSweep(t, s.Handler(), first, "")
	if w.Code != 200 {
		t.Fatalf("repeat sweep = %d", w.Code)
	}
	if got := w.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("repeat Cache-Status = %q, want %q", got, cacheHit)
	}
	if st := s.cache.Stats(); st.Hits != hits || st.Misses != misses {
		t.Errorf("identical repeat reached the trace layer: hits %d->%d misses %d->%d",
			hits, st.Hits, misses, st.Misses)
	}
}
