package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mbbp/internal/core"
)

// postSweepHeaders posts a sweep with extra request headers.
func postSweepHeaders(t *testing.T, h http.Handler, req SweepRequest, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestSweepETagRevalidation pins the conditional-request contract:
// responses carry a strong ETag, If-None-Match answers 304 with an
// empty body (and the ETag, per RFC 9110), revalidations are counted,
// and a non-matching validator gets the full body again.
func TestSweepETagRevalidation(t *testing.T) {
	s := newTestServer(t, Config{})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	first := postSweep(t, s.Handler(), req, "")
	if first.Code != 200 {
		t.Fatalf("sweep = %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if len(etag) < 3 || etag[0] != '"' {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}

	nm := postSweepHeaders(t, s.Handler(), req, map[string]string{"If-None-Match": etag})
	if nm.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match = %d, want 304", nm.Code)
	}
	if nm.Body.Len() != 0 {
		t.Errorf("304 carried a body (%d bytes)", nm.Body.Len())
	}
	if got := nm.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	if got := s.metrics.requestsNotModified.Load(); got != 1 {
		t.Errorf("requests_not_modified = %d, want 1", got)
	}

	// A stale validator gets the full (cached) body.
	full := postSweepHeaders(t, s.Handler(), req, map[string]string{"If-None-Match": `"stale"`})
	if full.Code != 200 || !bytes.Equal(full.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("stale validator: code %d, body identical = %v", full.Code,
			bytes.Equal(full.Body.Bytes(), first.Body.Bytes()))
	}
	// 304 works cold too — the ETag is derived from the request, not
	// from a cache entry, so revalidation survives eviction/restart.
	cold := newTestServer(t, Config{})
	if w := postSweepHeaders(t, cold.Handler(), req, map[string]string{"If-None-Match": etag}); w.Code != http.StatusNotModified {
		t.Errorf("cold-server If-None-Match = %d, want 304", w.Code)
	}
}

// TestETagStableAcrossRestarts: the same request on two independent
// server instances yields the same ETag — the validator is content
// addressing, not an instance artifact.
func TestETagStableAcrossRestarts(t *testing.T) {
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	a := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")
	b := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")
	if a.Code != 200 || b.Code != 200 {
		t.Fatalf("sweeps = %d, %d", a.Code, b.Code)
	}
	if ea, eb := a.Header().Get("ETag"), b.Header().Get("ETag"); ea != eb || ea == "" {
		t.Errorf("ETags differ across instances: %q vs %q", ea, eb)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("bodies differ across instances")
	}
}

// TestCacheStatusLifecycle drives one key through all three outcomes:
// miss (first compute), coalesced (identical request waiting on the
// in-flight flight), hit (completed entry) — with byte-identical bodies
// throughout.
func TestCacheStatusLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	computing := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookComputing = func() {
		once.Do(func() {
			close(computing)
			<-release
		})
	}
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	type outcome struct {
		w *httptest.ResponseRecorder
	}
	coalescing := make(chan struct{})
	s.hookCoalescing = func() { close(coalescing) }

	ownerDone := make(chan outcome)
	go func() { ownerDone <- outcome{postSweep(t, s.Handler(), req, "")} }()
	<-computing // the owner has claimed the flight and is parked

	waiterDone := make(chan outcome)
	go func() { waiterDone <- outcome{postSweep(t, s.Handler(), req, "")} }()
	<-coalescing // the waiter found the in-flight entry
	close(release)
	owner, waiter := <-ownerDone, <-waiterDone

	if owner.w.Code != 200 || waiter.w.Code != 200 {
		t.Fatalf("codes = %d, %d", owner.w.Code, waiter.w.Code)
	}
	if got := owner.w.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("owner Cache-Status = %q, want miss", got)
	}
	if got := waiter.w.Header().Get(cacheStatusHeader); got != string(cacheCoalesced) {
		t.Errorf("waiter Cache-Status = %q, want coalesced", got)
	}
	if !bytes.Equal(owner.w.Body.Bytes(), waiter.w.Body.Bytes()) {
		t.Error("coalesced body differs from the computed body")
	}

	warm := postSweep(t, s.Handler(), req, "")
	if got := warm.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("warm Cache-Status = %q, want hit", got)
	}
	if !bytes.Equal(warm.Body.Bytes(), owner.w.Body.Bytes()) {
		t.Error("hit body differs from the computed body")
	}

	st := s.results.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 coalesced / 1 hit", st)
	}
}

// TestNDJSONBypassesCache pins the documented exception: streaming
// responses are not content-addressed documents, so they carry no ETag
// or Cache-Status, never populate the result cache, and a stream
// following a cached JSON sweep still runs (sharing only the trace
// layer).
func TestNDJSONBypassesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	for i := 0; i < 2; i++ {
		w := postSweep(t, s.Handler(), req, "?stream=ndjson")
		if w.Code != 200 {
			t.Fatalf("stream %d = %d", i, w.Code)
		}
		if w.Header().Get(cacheStatusHeader) != "" || w.Header().Get("ETag") != "" {
			t.Errorf("stream %d carries cache headers: Cache-Status=%q ETag=%q",
				i, w.Header().Get(cacheStatusHeader), w.Header().Get("ETag"))
		}
	}
	if st := s.results.Stats(); st.Misses != 0 || st.Hits != 0 || s.results.Len() != 0 {
		t.Errorf("streams touched the result cache: %+v, len %d", st, s.results.Len())
	}

	// A cached JSON body does not get replayed to a stream client.
	if w := postSweep(t, s.Handler(), req, ""); w.Code != 200 {
		t.Fatalf("json sweep = %d", w.Code)
	}
	w := postSweep(t, s.Handler(), req, "?stream=ndjson")
	if w.Code != 200 {
		t.Fatalf("stream after cache = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Errorf("stream content type = %q", ct)
	}
}

// TestMultiSweepPerEntryCaching: multi-config requests share per-config
// entries with single-config requests, both directions, and the
// assembled composite body is byte-identical to a cold multi sweep.
func TestMultiSweepPerEntryCaching(t *testing.T) {
	cfgA := core.DefaultConfig()
	cfgB := core.DefaultConfig()
	cfgB.HistoryBits = 6

	s := newTestServer(t, Config{})
	single := SweepRequest{Config: configJSON(t, cfgA), Programs: []string{"li"}, Instructions: 5_000}
	multi := SweepRequest{
		Configs:      []json.RawMessage{configJSON(t, cfgA), configJSON(t, cfgB)},
		Programs:     []string{"li"},
		Instructions: 5_000,
	}

	if w := postSweep(t, s.Handler(), single, ""); w.Code != 200 {
		t.Fatalf("single = %d", w.Code)
	}
	// The multi request computes only cfgB; cfgA is a per-entry hit, so
	// the request overall reports miss (worst-of) with one hit counted.
	m1 := postSweep(t, s.Handler(), multi, "")
	if m1.Code != 200 {
		t.Fatalf("multi = %d", m1.Code)
	}
	if got := m1.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("first multi Cache-Status = %q, want miss (cfgB computed)", got)
	}
	st := s.results.Stats()
	if st.Hits != 1 {
		t.Errorf("per-entry hits after multi = %d, want 1 (cfgA reused)", st.Hits)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (cfgA single, cfgB in multi)", st.Misses)
	}

	// Fully warm multi: pure hit, byte-identical.
	m2 := postSweep(t, s.Handler(), multi, "")
	if got := m2.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("warm multi Cache-Status = %q, want hit", got)
	}
	if !bytes.Equal(m1.Body.Bytes(), m2.Body.Bytes()) {
		t.Error("warm multi body differs from first multi body")
	}

	// The other direction: cfgB was computed inside the multi batch and
	// now serves single-config requests.
	w := postSweep(t, s.Handler(), SweepRequest{Config: configJSON(t, cfgB), Programs: []string{"li"}, Instructions: 5_000}, "")
	if got := w.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("single cfgB Cache-Status = %q, want hit (warmed by multi)", got)
	}

	// The assembled body (cfgA from cache, cfgB from batch) is
	// byte-identical to a cold multi sweep on a fresh instance —
	// the pinned invariant for composite documents.
	cold := postSweep(t, newTestServer(t, Config{}).Handler(), multi, "")
	if cold.Code != 200 {
		t.Fatalf("cold multi = %d", cold.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), m1.Body.Bytes()) {
		t.Error("assembled multi body differs from cold reference")
	}

	// Multi requests revalidate too.
	etag := m1.Header().Get("ETag")
	if w := postSweepHeaders(t, s.Handler(), multi, map[string]string{"If-None-Match": etag}); w.Code != http.StatusNotModified {
		t.Errorf("multi If-None-Match = %d, want 304", w.Code)
	}
}

// TestResultCacheEvictionUnderPressure: a 1-entry result cache still
// serves every request correctly — the second distinct request evicts
// the first, so a repeat of the first recomputes with an identical
// body.
func TestResultCacheEvictionUnderPressure(t *testing.T) {
	s := newTestServer(t, Config{ResultCacheEntries: 1})
	reqA := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	reqB := SweepRequest{Programs: []string{"go"}, Instructions: 5_000}

	a1 := postSweep(t, s.Handler(), reqA, "")
	if w := postSweep(t, s.Handler(), reqB, ""); w.Code != 200 {
		t.Fatalf("reqB = %d", w.Code)
	}
	a2 := postSweep(t, s.Handler(), reqA, "")
	if a2.Code != 200 {
		t.Fatalf("reqA repeat = %d", a2.Code)
	}
	if got := a2.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("evicted repeat Cache-Status = %q, want miss", got)
	}
	if !bytes.Equal(a1.Body.Bytes(), a2.Body.Bytes()) {
		t.Error("recomputed body differs from the original")
	}
	if st := s.results.Stats(); st.Evictions == 0 {
		t.Error("no evictions recorded at capacity 1")
	}
}

// TestCacheFastPathSkipsQueue: warm hits are served even when the
// admission queue is saturated by other work — cached traffic is immune
// to backpressure.
func TestCacheFastPathSkipsQueue(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	if w := postSweep(t, s.Handler(), req, ""); w.Code != 200 {
		t.Fatalf("warming sweep = %d", w.Code)
	}

	// Saturate the only queue slot with a parked request.
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(ctx context.Context) {
		once.Do(func() {
			close(admitted)
			<-release
		})
	}
	defer close(release)
	blocked := SweepRequest{Programs: []string{"go"}, Instructions: 5_000}
	go postSweepQuiet(s.Handler(), blocked)
	<-admitted

	// Queue is full — a cold request bounces, the warm one sails through.
	if w := postSweep(t, s.Handler(), SweepRequest{Programs: []string{"ijpeg"}, Instructions: 5_000}, ""); w.Code != http.StatusTooManyRequests {
		t.Errorf("cold request with full queue = %d, want 429", w.Code)
	}
	w := postSweep(t, s.Handler(), req, "")
	if w.Code != 200 {
		t.Errorf("warm request with full queue = %d, want 200", w.Code)
	}
	if got := w.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("warm request Cache-Status = %q, want hit", got)
	}
}

// TestCoalescedWaiterSurvivesOwnerFailure: when the flight owner dies
// (its client hangs up mid-compute), the failed flight is dropped and
// the coalesced waiter retries from the top — it must get a full 200
// with the correct body, never the owner's error.
func TestCoalescedWaiterSurvivesOwnerFailure(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 4})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	want := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")

	computing := make(chan struct{})
	release := make(chan struct{})
	var onceC sync.Once
	s.hookComputing = func() {
		onceC.Do(func() {
			close(computing)
			<-release
		})
	}
	coalescing := make(chan struct{})
	var onceW sync.Once
	s.hookCoalescing = func() { onceW.Do(func() { close(coalescing) }) }

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	owner := make(chan *httptest.ResponseRecorder)
	go func() {
		r := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		owner <- w
	}()
	<-computing

	waiter := make(chan *httptest.ResponseRecorder)
	go func() { waiter <- postSweepQuiet(s.Handler(), req) }()
	<-coalescing

	cancel() // the owner's client hangs up
	close(release)

	if ow := <-owner; ow.Code == 200 {
		t.Errorf("cancelled owner answered %d, want an error status", ow.Code)
	}
	ww := <-waiter
	if ww.Code != 200 {
		t.Fatalf("waiter = %d, want 200 after retrying the dropped flight", ww.Code)
	}
	if !bytes.Equal(ww.Body.Bytes(), want.Body.Bytes()) {
		t.Error("waiter body differs from the cold reference")
	}
	if st := s.results.Stats(); st.Misses < 2 {
		t.Errorf("misses = %d, want >= 2 (failed flight + retry)", st.Misses)
	}
}

// TestStreamCancellationAccounting: an NDJSON stream whose client hangs
// up mid-flight is truncated and accounted as cancelled (the status is
// already committed, so there is nothing else to send).
func TestStreamCancellationAccounting(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 4})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	// Warm the trace cache so the cancellation lands in the simulate
	// stage, after headers are committed.
	if w := postSweep(t, s.Handler(), req, ""); w.Code != 200 {
		t.Fatalf("warming sweep = %d", w.Code)
	}

	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(ctx context.Context) {
		once.Do(func() {
			close(admitted)
			<-release
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := httptest.NewRequest("POST", "/v1/sweep?stream=ndjson", bytes.NewReader(body)).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), r)
	}()
	<-admitted
	cancel()
	close(release)
	<-done

	if got := s.metrics.requestsCancelled.Load(); got != 1 {
		t.Errorf("requests_cancelled = %d, want 1", got)
	}
	if st := s.results.Stats(); st.Hits+st.Misses+st.Coalesced != 1 {
		t.Errorf("stream touched the result cache: %+v (want only the warming miss)", st)
	}
}
