package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbbp/internal/core"
)

// startReplicaPool brings up n in-process replicas (full servers over
// real HTTP listeners) and a shard front-end routing to them. The
// returned httptest servers can be Closed mid-test to simulate replica
// death.
func startReplicaPool(t *testing.T, n int, replicaCfg, frontCfg Config) (*Server, []*httptest.Server) {
	t.Helper()
	replicas := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range replicas {
		rs := newTestServer(t, replicaCfg)
		replicas[i] = httptest.NewServer(rs.Handler())
		t.Cleanup(replicas[i].Close) // idempotent; tests may Close earlier
		addrs[i] = replicas[i].URL
	}
	frontCfg.ShardOf = addrs
	return newTestServer(t, frontCfg), replicas
}

// TestShardProxiesAndCaches: the front-end proxies a sweep to exactly
// one replica, the body is byte-identical to a standalone run, the
// response is attributed (X-Shard-Replica, X-Backend-Cache-Status), and
// a repeat is served from the front-end's own cache without touching
// the pool again.
func TestShardProxiesAndCaches(t *testing.T) {
	front, _ := startReplicaPool(t, 2, Config{}, Config{})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	ref := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")
	if ref.Code != 200 {
		t.Fatalf("reference sweep = %d", ref.Code)
	}

	w := postSweep(t, front.Handler(), req, "")
	if w.Code != 200 {
		t.Fatalf("proxied sweep = %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) {
		t.Error("proxied body differs from standalone reference")
	}
	if got := w.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("Cache-Status = %q, want miss", got)
	}
	if w.Header().Get(shardReplicaHeader) == "" {
		t.Error("proxied response missing X-Shard-Replica")
	}
	if got := w.Header().Get(backendCacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("X-Backend-Cache-Status = %q, want miss (cold replica)", got)
	}
	if got, want := w.Header().Get("ETag"), ref.Header().Get("ETag"); got != want {
		t.Errorf("front-end ETag %q != replica-path ETag %q", got, want)
	}

	// The front-end never simulated: its trace cache is untouched.
	if misses := front.cache.Stats().Misses; misses != 0 {
		t.Errorf("front-end captured %d traces; should proxy, not simulate", misses)
	}

	// Warm repeat: front-end cache answers, no replica round-trip.
	snap := front.pool.snapshot()
	var routesBefore uint64
	for _, r := range snap.Replicas {
		routesBefore += r.Routes
	}
	warm := postSweep(t, front.Handler(), req, "")
	if got := warm.Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("warm Cache-Status = %q, want hit", got)
	}
	if !bytes.Equal(warm.Body.Bytes(), ref.Body.Bytes()) {
		t.Error("warm body differs from reference")
	}
	var routesAfter uint64
	for _, r := range front.pool.snapshot().Replicas {
		routesAfter += r.Routes
	}
	if routesAfter != routesBefore {
		t.Errorf("warm hit reached the pool: routes %d -> %d", routesBefore, routesAfter)
	}
}

// TestShardRoutingDisperses: distinct sweep keys spread over the
// replicas (consistent hashing with virtual nodes), each key reaches
// exactly the replica the ring names as its owner, and the shard
// metrics group reports the pool.
//
// The replicas listen on ephemeral ports, so the ring differs from run
// to run and a fixed set of 8 keys all land on one replica about once
// in 128 runs. The test therefore sends at least 8 distinct keys and
// keeps going until every replica owns one of them; only a ring that
// leaves a replica unowned over 64 keys fails.
func TestShardRoutingDisperses(t *testing.T) {
	front, _ := startReplicaPool(t, 2, Config{}, Config{})
	want := make([]uint64, 2)
	owners := 0
	sent := 0
	for ; sent < 64 && (sent < 8 || owners < len(want)); sent++ {
		req := SweepRequest{Programs: []string{"li"}, Instructions: uint64(1_000 + sent)}
		owner := front.pool.ring.Owner(sweepKeyOf(t, req))
		if want[owner] == 0 {
			owners++
		}
		want[owner]++
		if w := postSweep(t, front.Handler(), req, ""); w.Code != 200 {
			t.Fatalf("sweep %d = %d", sent, w.Code)
		}
	}
	snap := front.pool.snapshot()
	var total uint64
	for i, r := range snap.Replicas {
		if r.Routes == 0 {
			t.Errorf("replica %s received no traffic over %d distinct keys", r.Addr, sent)
		}
		if r.Routes != want[i] {
			t.Errorf("replica %s routes = %d, want %d (the keys the ring assigns it)", r.Addr, r.Routes, want[i])
		}
		total += r.Routes
	}
	if total != uint64(sent) {
		t.Errorf("routes total = %d, want %d", total, sent)
	}

	// The JSON metrics expose the shard group.
	var m map[string]any
	w := getPath(t, front, "/metrics")
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	shard, ok := m["shard"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing shard group: %v", m)
	}
	if shard["replicas"].(float64) != 2 || shard["healthy"].(float64) != 2 {
		t.Errorf("shard gauges = %v", shard)
	}
	prom := getPath(t, front, "/metrics?format=prom").Body.String()
	for _, name := range []string{"mbbpd_shard_routes_total{replica=", "mbbpd_shard_reroutes_total",
		"mbbpd_shard_local_fallbacks_total", "mbbpd_shard_replicas_healthy"} {
		if !bytes.Contains([]byte(prom), []byte(name)) {
			t.Errorf("prom exposition missing %s", name)
		}
	}
}

// TestShardFailoverWalk: with a replica dead, keys it owns reroute to
// the survivor — same body, request succeeds, reroute counted, health
// gauge drops.
func TestShardFailoverWalk(t *testing.T) {
	front, replicas := startReplicaPool(t, 2, Config{}, Config{})
	ref := newTestServer(t, Config{})

	// Find a key owned by replica 0, then kill replica 0.
	var req SweepRequest
	found := false
	for i := 0; i < 64 && !found; i++ {
		req = SweepRequest{Programs: []string{"li"}, Instructions: uint64(2_000 + i)}
		key := sweepKeyOf(t, req)
		if front.pool.ring.Owner(key) == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no key owned by replica 0 in 64 tries (ring badly unbalanced)")
	}
	replicas[0].Close()

	want := postSweep(t, ref.Handler(), req, "")
	w := postSweep(t, front.Handler(), req, "")
	if w.Code != 200 {
		t.Fatalf("failover sweep = %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Error("failover body differs from reference")
	}
	if got := w.Header().Get(shardReplicaHeader); got != replicas[1].URL {
		t.Errorf("X-Shard-Replica = %q, want survivor %q", got, replicas[1].URL)
	}
	snap := front.pool.snapshot()
	if snap.Reroutes == 0 {
		t.Error("no reroutes counted after failover")
	}
	healthy := 0
	for _, r := range snap.Replicas {
		if r.Healthy {
			healthy++
		}
	}
	if healthy != 1 {
		t.Errorf("healthy replicas = %d, want 1", healthy)
	}
}

// TestShardAllDownLocalFallback: with every replica dead the front-end
// runs the sweep itself — byte-identical body, success, fallback
// counted and attributed.
func TestShardAllDownLocalFallback(t *testing.T) {
	front, replicas := startReplicaPool(t, 2, Config{}, Config{})
	for _, r := range replicas {
		r.Close()
	}
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	want := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")

	w := postSweep(t, front.Handler(), req, "")
	if w.Code != 200 {
		t.Fatalf("fallback sweep = %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Error("fallback body differs from reference")
	}
	if got := w.Header().Get(shardReplicaHeader); got != "local" {
		t.Errorf("X-Shard-Replica = %q, want local", got)
	}
	if snap := front.pool.snapshot(); snap.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", snap.Fallbacks)
	}
	// And the fallback warmed the front-end cache.
	if got := postSweep(t, front.Handler(), req, "").Header().Get(cacheStatusHeader); got != string(cacheHit) {
		t.Errorf("post-fallback Cache-Status = %q, want hit", got)
	}

	// Multi-config requests degrade identically.
	multi := SweepRequest{
		Configs:      []json.RawMessage{json.RawMessage(`{}`), json.RawMessage(`{"NumSTs":2}`)},
		Programs:     []string{"li"},
		Instructions: 5_000,
	}
	wantMulti := postSweep(t, newTestServer(t, Config{}).Handler(), multi, "")
	gotMulti := postSweep(t, front.Handler(), multi, "")
	if gotMulti.Code != 200 {
		t.Fatalf("multi fallback = %d", gotMulti.Code)
	}
	if !bytes.Equal(gotMulti.Body.Bytes(), wantMulti.Body.Bytes()) {
		t.Error("multi fallback body differs from reference")
	}
	if got := gotMulti.Header().Get(shardReplicaHeader); got != "local" {
		t.Errorf("multi X-Shard-Replica = %q, want local", got)
	}

	// A duplicated configuration with h2p on runs once on both paths:
	// local and fallback bodies agree byte for byte, and each h2p
	// section equals the single-config reference.
	dup := SweepRequest{
		Configs:      []json.RawMessage{json.RawMessage(`{"NumSTs":2}`), json.RawMessage(`{"NumSTs":2}`)},
		Programs:     []string{"li"},
		Instructions: 5_000,
		H2P:          true,
	}
	wantDup := postSweep(t, newTestServer(t, Config{}).Handler(), dup, "")
	gotDup := postSweep(t, front.Handler(), dup, "")
	if wantDup.Code != 200 || gotDup.Code != 200 {
		t.Fatalf("duplicate h2p sweep = %d local, %d fallback", wantDup.Code, gotDup.Code)
	}
	if !bytes.Equal(gotDup.Body.Bytes(), wantDup.Body.Bytes()) {
		t.Error("duplicate-config fallback body differs from the local body")
	}
	if got := gotDup.Header().Get(shardReplicaHeader); got != "local" {
		t.Errorf("duplicate X-Shard-Replica = %q, want local", got)
	}
	cfg := core.DefaultConfig()
	cfg.NumSTs = 2
	checkH2PSectionsMatchSingle(t, gotDup.Body.Bytes(), []core.Config{cfg, cfg})
}

// TestShardCoalescing: identical concurrent requests through the
// front-end collapse onto one proxied flight — the replica sees one
// request, the waiter's body is byte-identical, and the outcome is
// attributed as coalesced.
func TestShardCoalescing(t *testing.T) {
	front, _ := startReplicaPool(t, 1, Config{}, Config{QueueDepth: 4})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	computing := make(chan struct{})
	release := make(chan struct{})
	var onceC sync.Once
	front.hookComputing = func() {
		onceC.Do(func() {
			close(computing)
			<-release
		})
	}
	coalescing := make(chan struct{})
	var onceW sync.Once
	front.hookCoalescing = func() { onceW.Do(func() { close(coalescing) }) }

	type result struct{ w *httptest.ResponseRecorder }
	owner := make(chan result)
	waiter := make(chan result)
	go func() { owner <- result{postSweepQuiet(front.Handler(), req)} }()
	<-computing
	go func() { waiter <- result{postSweepQuiet(front.Handler(), req)} }()
	<-coalescing
	close(release)

	ow, ww := <-owner, <-waiter
	if ow.w.Code != 200 || ww.w.Code != 200 {
		t.Fatalf("codes = %d, %d", ow.w.Code, ww.w.Code)
	}
	if got := ow.w.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("owner Cache-Status = %q, want miss", got)
	}
	if got := ww.w.Header().Get(cacheStatusHeader); got != string(cacheCoalesced) {
		t.Errorf("waiter Cache-Status = %q, want coalesced", got)
	}
	if !bytes.Equal(ow.w.Body.Bytes(), ww.w.Body.Bytes()) {
		t.Error("coalesced body differs from the proxied one")
	}
	snap := front.pool.snapshot()
	if snap.Replicas[0].Routes != 1 {
		t.Errorf("replica saw %d requests, want 1 (coalesced)", snap.Replicas[0].Routes)
	}
}

// TestShardReplicaErrorPassthrough: a replica's non-retryable verdict
// (here a stub answering 400) is passed through uncached — status and
// body intact, attributed to the replica, and never poisoning the
// front-end cache.
func TestShardReplicaErrorPassthrough(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, "replica says no")
	}))
	t.Cleanup(stub.Close)
	front := newTestServer(t, Config{ShardOf: []string{stub.URL}})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}

	w := postSweep(t, front.Handler(), req, "")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("passthrough code = %d, want 400", w.Code)
	}
	if got := w.Body.String(); got != "replica says no" {
		t.Errorf("passthrough body = %q", got)
	}
	if got := w.Header().Get(shardReplicaHeader); got != stub.URL {
		t.Errorf("X-Shard-Replica = %q, want %q", got, stub.URL)
	}
	if front.results.Len() != 0 {
		t.Error("replica error left an entry in the front-end cache")
	}
	if got := front.metrics.requestsErrored.Load(); got != 1 {
		t.Errorf("requests_errored = %d, want 1", got)
	}
}

// TestShardRejectsBadReplicaSet: duplicate or empty addresses fail
// construction.
func TestShardRejectsBadReplicaSet(t *testing.T) {
	if _, err := New(Config{ShardOf: []string{"a:1", "a:1"}, Logger: quietLogger()}); err == nil {
		t.Error("duplicate replica addresses accepted")
	}
	if _, err := New(Config{ShardOf: []string{""}, Logger: quietLogger()}); err == nil {
		t.Error("empty replica address accepted")
	}
}

// sweepKeyOf derives the request key the way the handler does.
func sweepKeyOf(t *testing.T, req SweepRequest) string {
	t.Helper()
	call, err := req.parseAll(10_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	_, reqKey, err := sweepKeys(call.cfgs, call.opts, call.multi)
	if err != nil {
		t.Fatal(err)
	}
	return reqKey
}

// TestShardSoak is the pinned scaling invariant under churn: a
// front-end over three replicas, 64 concurrent clients mixing hot
// (shared, cacheable) and cold (distinct) sweeps, one replica killed
// midway — every response must be 200 and byte-identical to a serial
// reference, with rerouting observable in the metrics. Run under -race
// in CI (server-smoke), this is the end-to-end proof that the cache,
// the coalescer, the proxy walk, and the local fallback never serve a
// wrong or failed body.
func TestShardSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		clients    = 64
		iterations = 6
		hotKeys    = 3
		coldKeys   = 24
	)
	front, replicas := startReplicaPool(t, 3,
		Config{QueueDepth: 2 * clients}, Config{QueueDepth: 2 * clients})
	ref := newTestServer(t, Config{QueueDepth: 4})

	requests := make([]SweepRequest, 0, hotKeys+coldKeys)
	for i := 0; i < hotKeys; i++ {
		requests = append(requests, SweepRequest{Programs: []string{"li"}, Instructions: uint64(5_000 + i)})
	}
	for i := 0; i < coldKeys; i++ {
		requests = append(requests, SweepRequest{Programs: []string{"go"}, Instructions: uint64(1_000 + i)})
	}
	want := make([][]byte, len(requests))
	for i, req := range requests {
		w := postSweep(t, ref.Handler(), req, "")
		if w.Code != 200 {
			t.Fatalf("reference %d = %d", i, w.Code)
		}
		want[i] = w.Body.Bytes()
	}

	// Kill replica 0 once a third of the traffic has completed.
	var completed atomic.Int64
	killAt := int64(clients * iterations / 3)
	var killOnce sync.Once

	var wg sync.WaitGroup
	errs := make(chan string, clients*iterations)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// Even iterations hammer the hot set; odd ones walk the
				// cold set so every client mixes both.
				var idx int
				if i%2 == 0 {
					idx = (c + i) % hotKeys
				} else {
					idx = hotKeys + (c*7+i)%coldKeys
				}
				w := postSweepQuiet(front.Handler(), requests[idx])
				if w.Code != 200 {
					errs <- fmt.Sprintf("client %d iter %d: status %d", c, i, w.Code)
				} else if !bytes.Equal(w.Body.Bytes(), want[idx]) {
					errs <- fmt.Sprintf("client %d iter %d: body differs from reference %d", c, i, idx)
				}
				if completed.Add(1) == killAt {
					killOnce.Do(func() {
						replicas[0].CloseClientConnections()
						replicas[0].Close()
					})
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every request succeeded end to end.
	if got, wantN := front.metrics.requestsOK.Load(), int64(clients*iterations); got != wantN {
		t.Errorf("front-end requests_ok = %d, want %d", got, wantN)
	}
	if got := front.metrics.requestsErrored.Load() + front.metrics.requestsRejected.Load(); got != 0 {
		t.Errorf("front-end errored/rejected = %d, want 0", got)
	}

	// Force a deterministic reroute: a fresh key owned by the dead
	// replica must fail over and be counted.
	for i := 0; ; i++ {
		if i == 256 {
			t.Fatal("no key owned by dead replica in 256 tries")
		}
		req := SweepRequest{Programs: []string{"li"}, Instructions: uint64(50_000 + i)}
		if front.pool.ring.Owner(sweepKeyOf(t, req)) != 0 {
			continue
		}
		refW := postSweep(t, ref.Handler(), req, "")
		w := postSweep(t, front.Handler(), req, "")
		if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), refW.Body.Bytes()) {
			t.Errorf("post-kill sweep: code %d, identical=%v", w.Code,
				bytes.Equal(w.Body.Bytes(), refW.Body.Bytes()))
		}
		break
	}
	snap := front.pool.snapshot()
	if snap.Reroutes == 0 {
		t.Error("no reroutes counted with a dead replica")
	}
	healthy := 0
	for _, r := range snap.Replicas {
		if r.Healthy {
			healthy++
		}
	}
	if healthy != 2 {
		t.Errorf("healthy replicas = %d, want 2 of 3", healthy)
	}
	// The hot set must have been served overwhelmingly from cache.
	if st := front.results.Stats(); st.Hits == 0 {
		t.Errorf("soak recorded no front-end cache hits: %+v", st)
	}
}

// TestShardWaiterSurvivesOwnerFailure: the owner of a proxied flight
// hangs up mid-proxy; the coalesced waiter retries from the top and
// gets a full correct body from the pool.
func TestShardWaiterSurvivesOwnerFailure(t *testing.T) {
	front, _ := startReplicaPool(t, 1, Config{}, Config{QueueDepth: 4})
	req := SweepRequest{Programs: []string{"li"}, Instructions: 5_000}
	want := postSweep(t, newTestServer(t, Config{}).Handler(), req, "")

	computing := make(chan struct{})
	release := make(chan struct{})
	var onceC sync.Once
	front.hookComputing = func() {
		onceC.Do(func() {
			close(computing)
			<-release
		})
	}
	coalescing := make(chan struct{})
	var onceW sync.Once
	front.hookCoalescing = func() { onceW.Do(func() { close(coalescing) }) }

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	owner := make(chan *httptest.ResponseRecorder)
	go func() {
		r := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		front.Handler().ServeHTTP(w, r)
		owner <- w
	}()
	<-computing
	waiter := make(chan *httptest.ResponseRecorder)
	go func() { waiter <- postSweepQuiet(front.Handler(), req) }()
	<-coalescing
	cancel()
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
}

// TestShardSoakHostileReplicas extends the shard soak to replicas that
// misbehave without dying: one stays alive but answers only after the
// front-end's RequestTimeout, one promises a whole body and cuts it
// short. Two front-ends route concurrent clients to them and to one
// healthy replica; every 200 body must be byte-identical to a local
// run, no request may fall back to local execution, and once the
// servers shut down no goroutine may be left behind.
//
// The first front-end has no cooldown and no slow replica, so every
// request whose key the truncated replica owns walks past it. The
// second runs the production cooldown over all three. The front-end
// gives a replica the whole request budget (it cannot tell a hung
// replica from a long sweep), so the probe request that first reaches
// the slow replica times out; the replica is then marked failed and
// the concurrent clients that follow never wait on it.
func TestShardSoakHostileReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		clients    = 16
		iterations = 4
		probes     = 8
		timeout    = 5 * time.Second
	)
	ref := newTestServer(t, Config{QueueDepth: 4})
	// Soak keys are each asked twice; probe keys are distinct from them,
	// so the soak's sweeps are not already in the front-end's cache.
	requests := make([]SweepRequest, clients*iterations/2+probes)
	want := make([][]byte, len(requests))
	for i := range requests {
		requests[i] = SweepRequest{Programs: []string{"li"}, Instructions: uint64(2_000 + i)}
		w := postSweep(t, ref.Handler(), requests[i], "")
		if w.Code != 200 {
			t.Fatalf("reference %d = %d", i, w.Code)
		}
		want[i] = w.Body.Bytes()
	}
	soakKeys := len(requests) - probes

	baseline := runtime.NumGoroutine()
	newServer := func(cfg Config) *Server {
		cfg.Logger = quietLogger()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	healthy := newServer(Config{QueueDepth: 2 * clients})
	healthyURL := httptest.NewServer(healthy.Handler())
	// slow is alive and correct, but only after the front-end gave up.
	// It reads the request body first: the server notices a client that
	// hung up only once the body is consumed.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-r.Context().Done():
			return
		case <-time.After(2 * timeout):
		}
		healthy.Handler().ServeHTTP(w, r)
	}))
	// truncated promises the whole body and sends half of it.
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		healthy.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/2])
	}))
	healthyAt := func(front *Server, url string) bool {
		for _, r := range front.pool.snapshot().Replicas {
			if r.Addr == url {
				return r.Healthy
			}
		}
		t.Fatalf("replica %s not in the pool", url)
		return false
	}
	soak := func(name string, front *Server) {
		var wg sync.WaitGroup
		errs := make(chan string, clients*iterations)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < iterations; i++ {
					idx := (c*iterations + i) % soakKeys
					w := postSweepQuiet(front.Handler(), requests[idx])
					if w.Code != 200 {
						errs <- fmt.Sprintf("%s: client %d iter %d: status %d: %s", name, c, i, w.Code, w.Body.Bytes())
					} else if !bytes.Equal(w.Body.Bytes(), want[idx]) {
						errs <- fmt.Sprintf("%s: client %d iter %d: body differs from reference %d", name, c, i, idx)
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		snap := front.pool.snapshot()
		if snap.Reroutes == 0 || snap.Fallbacks != 0 {
			t.Errorf("%s: reroutes = %d, fallbacks = %d; want reroutes past the hostile replicas and no local fallback",
				name, snap.Reroutes, snap.Fallbacks)
		}
		if !healthyAt(front, healthyURL.URL) {
			t.Errorf("%s: the healthy replica was marked failed", name)
		}
	}

	walker := newServer(Config{
		QueueDepth:     2 * clients,
		RequestTimeout: timeout,
		ShardOf:        []string{healthyURL.URL, truncated.URL},
	})
	walker.pool.cooldown = 0
	soak("no cooldown", walker)

	front := newServer(Config{
		QueueDepth:     2 * clients,
		RequestTimeout: timeout,
		ShardOf:        []string{healthyURL.URL, slow.URL, truncated.URL},
	})
	timeouts := 0
	for i := soakKeys; i < len(requests); i++ {
		w := postSweep(t, front.Handler(), requests[i], "")
		switch {
		case w.Code == http.StatusGatewayTimeout:
			timeouts++
		case w.Code != 200:
			t.Errorf("probe %d: status %d: %s", i, w.Code, w.Body.Bytes())
		case !bytes.Equal(w.Body.Bytes(), want[i]):
			t.Errorf("probe %d: body differs from reference", i)
		}
	}
	if timeouts > 1 || healthyAt(front, slow.URL) {
		t.Fatalf("probes: %d timeouts, slow replica healthy = %v; want at most one timeout and the slow replica cooling down",
			timeouts, healthyAt(front, slow.URL))
	}
	soak("cooldown", front)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range []*Server{walker, front, healthy} {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, hs := range []*httptest.Server{healthyURL, slow, truncated} {
		hs.Close()
	}
	walker.pool.client.CloseIdleConnections()
	front.pool.client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, %d before the pool started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardSlowHealthyReplicaAnswers pins the budget a replica gets: a
// healthy replica whose sweep takes most of the front-end's
// RequestTimeout still answers through the front-end and is not marked
// failed. Cutting the attempt short to leave time for the failover
// walk would throw the replica's work away.
func TestShardSlowHealthyReplicaAnswers(t *testing.T) {
	const timeout = 3 * time.Second
	req := SweepRequest{Programs: []string{"li"}, Instructions: 2_000}
	want := postSweep(t, newTestServer(t, Config{QueueDepth: 4}).Handler(), req, "")
	replica := newTestServer(t, Config{QueueDepth: 4})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(timeout * 7 / 10):
		}
		replica.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	front := newTestServer(t, Config{QueueDepth: 4, RequestTimeout: timeout, ShardOf: []string{slow.URL}})

	w := postSweep(t, front.Handler(), req, "")
	if w.Code != 200 || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("status %d, body equal to a local run = %v", w.Code, bytes.Equal(w.Body.Bytes(), want.Body.Bytes()))
	}
	if got := w.Header().Get(shardReplicaHeader); got != slow.URL {
		t.Errorf("answered by %q, want the slow replica %s", got, slow.URL)
	}
	snap := front.pool.snapshot()
	if !snap.Replicas[0].Healthy || snap.Fallbacks != 0 {
		t.Errorf("slow replica healthy = %v, fallbacks = %d; want healthy and no fallback",
			snap.Replicas[0].Healthy, snap.Fallbacks)
	}
}
