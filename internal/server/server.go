// Package server is the mbbpd simulation service: a long-running
// HTTP/JSON front end over the paper's fetch-prediction engine. Sweep
// requests (configuration × workload set × instruction count) are
// validated, admitted through a bounded queue (full ⇒ 429 +
// Retry-After), and batched onto one shared work-stealing pool; trace
// capture is deduplicated across concurrent requests by an LRU cache,
// request contexts (client disconnect, per-request timeout) cancel
// queued and running jobs, and results reuse the exact drivers the CLI
// runs — a sweep's JSON body is byte-identical to the serial harness
// reference for the same request.
//
// Because sweeps are pure functions of the request, whole rendered
// bodies are content-addressed and cached (resultcache.go): repeat
// requests are served from memory without a queue slot, identical
// concurrent requests coalesce onto one computation, and strong ETags
// derived from the canonical request key give clients If-None-Match →
// 304 revalidation. A server can also front a pool of replicas
// (shard.go): sweep keys route to backends on a consistent-hash ring,
// bodies proxy through unchanged, and the front-end degrades to local
// execution when every replica is down.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds the number of admitted (queued or running)
	// sweep requests; further requests are rejected with 429 and a
	// Retry-After header. Result-cache hits and coalesced waits do not
	// take a queue slot — only requests that compute (or proxy) do.
	// Default 64.
	QueueDepth int
	// Workers sizes the shared simulation pool; <= 0 means one worker
	// per CPU.
	Workers int
	// CacheEntries bounds the LRU trace cache (captured traces keyed
	// by program and instruction count). Default 64.
	CacheEntries int
	// ResultCacheEntries bounds the content-addressed result cache
	// (fully rendered response bodies keyed by the canonical sweep
	// key). Default 256.
	ResultCacheEntries int
	// ShardOf, when non-empty, makes this server a shard front-end:
	// sweep requests route to these replica addresses ("host:port" or
	// full URLs) by consistent hashing of the canonical sweep key,
	// responses proxy through unchanged (and populate this server's
	// result cache), dead replicas are retried by walking the ring,
	// and when every replica is down the request degrades to local
	// execution. NDJSON streaming requests always run locally.
	ShardOf []string
	// MaxInstructions caps the per-program trace length a request may
	// ask for. Default 10,000,000.
	MaxInstructions uint64
	// RequestTimeout bounds each sweep request's total time; the
	// deadline propagates into job execution (and into proxied shard
	// requests). Default 120s.
	RequestTimeout time.Duration
	// Logger receives structured per-request logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// Tap enables the engine event tap for every sweep run: one shared
	// set of atomic counters (blocks, redirects, penalty cycles and
	// events by Table 3 kind) accumulates across requests and is
	// exposed by /metrics. Off by default; taps never change results,
	// and a disabled tap costs nothing.
	Tap bool
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.ResultCacheEntries <= 0 {
		c.ResultCacheEntries = 256
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 10_000_000
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is one service instance. Create it with New, expose
// Handler() over HTTP, and stop it with Shutdown (drains in-flight
// requests, then stops the pool).
type Server struct {
	cfg     Config
	log     *slog.Logger
	sched   *harness.Scheduler
	cache   *trace.Cache
	results *resultCache
	pool    *shardPool    // nil unless Config.ShardOf
	queue   chan struct{} // admission semaphore; len() is the live depth
	metrics *metricsSet
	tap     *obs.Counters // nil unless Config.Tap
	h2p     *fleetH2P     // fleet-wide attribution from h2p-enabled sweeps
	mux     *http.ServeMux

	// ridPrefix namespaces minted request IDs ("<prefix>-<seq>") so IDs
	// from different replicas never collide in stitched logs.
	ridPrefix string

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	reqSeq atomic.Uint64

	// hookAdmitted, when set (tests only), runs after a sweep request
	// is admitted past the queue and before it claims a result-cache
	// flight or submits jobs.
	hookAdmitted func(ctx context.Context)
	// hookComputing, when set (tests only), runs after a request has
	// claimed a result-cache flight and before it computes — the
	// window in which identical requests coalesce.
	hookComputing func()
	// hookCoalescing, when set (tests only), runs when a request is
	// about to wait on another request's in-flight entry.
	hookCoalescing func()
}

// New builds a server and starts its worker pool. It fails only on an
// invalid shard configuration (empty or duplicate replica addresses).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		sched:   harness.NewScheduler(cfg.Workers),
		cache:   trace.NewCache(cfg.CacheEntries),
		results: newResultCache(cfg.ResultCacheEntries),
		queue:   make(chan struct{}, cfg.QueueDepth),
		h2p:     newFleetH2P(),

		ridPrefix: newRIDPrefix(),
	}
	if len(cfg.ShardOf) > 0 {
		pool, err := newShardPool(cfg.ShardOf, cfg.RequestTimeout)
		if err != nil {
			s.sched.Close()
			return nil, err
		}
		s.pool = pool
	}
	if cfg.Tap {
		s.tap = obs.NewCounters()
	}
	var shardSnap func() *shardSnapshot
	if s.pool != nil {
		shardSnap = s.pool.snapshot
	}
	s.metrics = newMetricsSet(cfg.QueueDepth, s.cache.Stats, s.results.stats, shardSnap, s.sched.Stats, s.tap, s.h2p.snapshot)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/predictors", s.handlePredictors)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.metrics.handler)
	// /debug/vars is the standard expvar view of the *process* — Go
	// runtime memstats, cmdline, and anything published globally. It
	// complements /metrics, which is this service's own snapshot
	// (request counters, latency histogram, pool/tap telemetry) and
	// deliberately avoids the global registry so test servers coexist.
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new sweep requests are refused with
// 503, in-flight requests run to completion (or until ctx expires),
// and the worker pool stops. The HTTP listener itself is the caller's
// to close — stop accepting connections first (http.Server.Shutdown),
// then call this.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.sched.Close()
		s.log.Info("server drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// drainingNow reports whether shutdown has begun. The cache fast path
// checks it explicitly because hits never pass through admit().
func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit reserves a queue slot, or reports why it cannot.
func (s *Server) admit() (release func(), status int) {
	s.mu.Lock()
	draining := s.draining
	if !draining {
		// Registering inflight under the lock keeps Shutdown's
		// drain-flag flip and Wait from racing a late admission.
		select {
		case s.queue <- struct{}{}:
			s.inflight.Add(1)
			s.mu.Unlock()
			return func() {
				<-s.queue
				s.inflight.Done()
			}, 0
		default:
			s.mu.Unlock()
			return nil, http.StatusTooManyRequests
		}
	}
	s.mu.Unlock()
	return nil, http.StatusServiceUnavailable
}

// handleSweep is the core endpoint: decode, validate, revalidate
// (ETag), then serve from cache, from a shard replica, or by local
// computation.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := s.requestID(r)
	w.Header().Set(requestIDHeader, rid)
	log := s.log.With("req", rid, "remote", r.RemoteAddr)
	s.metrics.requestsTotal.Add(1)
	sp := obs.NewSpans(start)

	// The raw body is kept for shard proxying: forwarding the client's
	// own bytes means the replica parses exactly what we parsed.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.metrics.requestsBad.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var req SweepRequest
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
		s.metrics.requestsBad.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	cfgs, opts, multi, err := req.parseAll(s.cfg.MaxInstructions)
	if err != nil {
		s.metrics.requestsBad.Add(1)
		log.Warn("rejected request", "err", err)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	h2pN, err := req.h2pTopN()
	if err != nil {
		s.metrics.requestsBad.Add(1)
		log.Warn("rejected request", "err", err)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sp.Mark("admit") // decode + validation

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// NDJSON streaming bypasses the result cache and shard routing: a
	// stream is an incremental representation (lines flush as programs
	// fold), not a content-addressed document, so it always runs
	// locally. Streamed runs still share the trace cache.
	if r.URL.Query().Get("stream") == "ndjson" || r.Header.Get("Accept") == "application/x-ndjson" {
		release, status := s.admit()
		if status != 0 {
			s.refuse(w, log, status)
			return
		}
		defer release()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sp.Mark("queue")
		if s.hookAdmitted != nil {
			s.hookAdmitted(ctx)
		}
		if multi {
			s.metrics.requestsBad.Add(1)
			err := errors.New("streaming supports a single config; use the configs field without stream=ndjson")
			log.Warn("rejected request", "err", err)
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if h2pN > 0 {
			s.metrics.requestsBad.Add(1)
			err := errors.New("h2p is not available with NDJSON streaming")
			log.Warn("rejected request", "err", err)
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		s.streamSweep(ctx, w, log, start, sp, cfgs[0], opts)
		return
	}

	keys, reqKey, err := sweepKeys(cfgs, opts, multi)
	if err != nil {
		// Unreachable in practice: parseAll validated every config.
		s.metrics.requestsErrored.Add(1)
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if h2pN > 0 {
		keys, reqKey = h2pKeys(keys, reqKey, h2pN)
	}
	etag := etagFor(reqKey)

	// Strong revalidation: the ETag is a pure function of the request,
	// so a match answers 304 without touching the cache or the queue.
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.metrics.requestsNotModified.Add(1)
		s.metrics.observeLatency(time.Since(start))
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		log.Info("sweep revalidated", "etag", etag, "dur_ms", time.Since(start).Milliseconds())
		return
	}

	if s.pool != nil {
		s.serveSharded(ctx, w, log, start, sp, raw, rid, cfgs, opts, multi, h2pN, reqKey, etag)
		return
	}
	s.serveLocal(ctx, w, log, start, sp, cfgs, opts, multi, h2pN, keys, etag)
}

// refuse writes a queue rejection (429 or 503) with its metrics.
func (s *Server) refuse(w http.ResponseWriter, log *slog.Logger, status int) {
	if status == http.StatusTooManyRequests {
		s.metrics.requestsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		log.Warn("queue full", "queue", len(s.queue))
	} else {
		s.metrics.requestsErrored.Add(1)
		log.Warn("draining; refused")
	}
	s.writeError(w, status, errors.New(http.StatusText(status)))
}

// serveLocal answers a (non-streaming) sweep from the local engine,
// fronted by the result cache. Per-entry flow — multi-config requests
// resolve each configuration independently, so entries warmed by
// single-config requests serve multi requests and vice versa:
//
//   - fast path: every entry already exists (completed or in-flight) —
//     wait and serve without taking a queue slot, so hot traffic is
//     immune to admission backpressure;
//   - slow path: admit, claim the missing entries, compute them as one
//     lane batch, resolve, serve.
//
// A claimed flight that fails drops its entry (failures are never
// cached); waiters retry from the top under their own context.
func (s *Server) serveLocal(ctx context.Context, w http.ResponseWriter, log *slog.Logger,
	start time.Time, sp *obs.Spans, cfgs []core.Config, opts harness.Options,
	multi bool, h2pN int, keys []string, etag string) {
	for {
		if s.drainingNow() {
			s.refuse(w, log, http.StatusServiceUnavailable)
			return
		}

		// Fast path: probe only (shared lock, no queue slot).
		entries := make([]*resultEntry, len(keys))
		outcomes := make([]cacheStatus, len(keys))
		allPresent := true
		for i, k := range keys {
			if entries[i] = s.results.probe(k); entries[i] == nil {
				allPresent = false
				break
			}
			if entries[i].completed() {
				outcomes[i] = cacheHit
			} else {
				outcomes[i] = cacheCoalesced
			}
		}
		if allPresent {
			if s.hookCoalescing != nil {
				for _, o := range outcomes {
					if o == cacheCoalesced {
						s.hookCoalescing()
						break
					}
				}
			}
			if retry, ok := s.finishEntries(ctx, w, log, start, entries); !ok {
				return
			} else if retry {
				continue
			}
			s.serveAssembled(w, log, start, sp, entries, outcomes, multi, etag, opts, len(cfgs))
			return
		}

		// Slow path: take a queue slot, claim what is missing, compute.
		release, status := s.admit()
		if status != 0 {
			s.refuse(w, log, status)
			return
		}
		s.metrics.inflight.Add(1)
		sp.Mark("queue")
		if s.hookAdmitted != nil {
			s.hookAdmitted(ctx)
		}

		var toCompute []int
		for i, k := range keys {
			e, claimed := s.results.claim(k)
			entries[i] = e
			switch {
			case claimed:
				outcomes[i] = cacheMiss
				toCompute = append(toCompute, i)
			case e.completed():
				outcomes[i] = cacheHit
			default:
				outcomes[i] = cacheCoalesced
			}
		}
		var computeErr error
		if len(toCompute) > 0 {
			if s.hookComputing != nil {
				s.hookComputing()
			}
			computeErr = s.computeEntries(ctx, sp, cfgs, opts, entries, toCompute, h2pN)
		}
		release()
		s.metrics.inflight.Add(-1)
		if computeErr != nil {
			elapsed := time.Since(start)
			s.metrics.observeLatency(elapsed)
			s.failSweep(w, log, computeErr, elapsed)
			return
		}
		if retry, ok := s.finishEntries(ctx, w, log, start, entries); !ok {
			return
		} else if retry {
			continue
		}
		s.serveAssembled(w, log, start, sp, entries, outcomes, multi, etag, opts, len(cfgs))
		return
	}
}

// finishEntries waits for every entry to resolve. ok=false means the
// request already failed (context died) and a response was written;
// retry=true means some flight owner failed and dropped its entry, so
// the caller should re-resolve from the top.
func (s *Server) finishEntries(ctx context.Context, w http.ResponseWriter, log *slog.Logger,
	start time.Time, entries []*resultEntry) (retry, ok bool) {
	for _, e := range entries {
		if err := s.results.await(ctx, e); err != nil {
			elapsed := time.Since(start)
			s.metrics.observeLatency(elapsed)
			s.failSweep(w, log, err, elapsed)
			return false, false
		}
	}
	for _, e := range entries {
		if e.err != nil {
			return true, true
		}
	}
	return false, true
}

// computeEntries runs the claimed configurations through computeSweeps
// and resolves each claimed entry with its rendered body. On error
// every claimed entry is dropped.
func (s *Server) computeEntries(ctx context.Context, sp *obs.Spans, cfgs []core.Config,
	opts harness.Options, entries []*resultEntry, toCompute []int, h2pN int) error {
	fail := func(err error) error {
		for _, i := range toCompute {
			s.results.resolve(entries[i], nil, nil, err)
		}
		return err
	}
	computed := make([]core.Config, len(toCompute))
	for j, i := range toCompute {
		computed[j] = cfgs[i]
	}
	resps, err := s.computeSweeps(ctx, sp, computed, opts, h2pN)
	if err != nil {
		return fail(err)
	}
	for j, i := range toCompute {
		body, err := MarshalResponse(resps[j])
		if err != nil {
			return fail(err)
		}
		s.results.resolve(entries[i], body, &resps[j], nil)
	}
	return nil
}

// computeSweeps is the one place mbbpd simulates: it runs a request's
// configurations as one lane batch over the (cached) trace set — a
// single-config request is a batch of one — and builds one response
// per configuration, in order. Configurations sharing a cache geometry
// run as lockstep lanes of one trace walk per program. Duplicate
// configurations run once: with h2p on they share one accumulator,
// which must see exactly one lane's events.
func (s *Server) computeSweeps(ctx context.Context, sp *obs.Spans, cfgs []core.Config,
	opts harness.Options, h2pN int) ([]SweepResponse, error) {
	h2p, err := s.newH2PState(h2pN, cfgs, opts.Programs)
	if err != nil {
		return nil, err
	}
	ts, err := harness.LoadTracesCached(ctx, s.sched, opts, s.cache)
	if err != nil {
		return nil, err
	}
	sp.Mark("capture")
	b := harness.NewBatchCtx(ctx, s.sched, s.tappedH2P(ts, h2p))
	seen := make(map[string]*harness.SuitePromise, len(cfgs))
	promises := make([]*harness.SuitePromise, len(cfgs))
	for i, cfg := range cfgs {
		ck, err := cfg.CanonicalHash()
		if err != nil {
			return nil, err
		}
		if seen[ck] == nil {
			seen[ck] = b.RunConfig(cfg)
		}
		promises[i] = seen[ck]
	}
	b.Flush()
	resps := make([]SweepResponse, len(cfgs))
	for i, p := range promises {
		res, err := p.WaitCtx(ctx)
		if err != nil {
			return nil, err
		}
		resps[i] = BuildSweepResponse(cfgs[i], opts, res)
		resps[i].H2P = h2p.report(cfgs[i], opts.Programs)
	}
	sp.Mark("simulate")
	s.h2p.record(h2p)
	return resps, nil
}

// serveAssembled writes the response for fully resolved entries: the
// cached body directly for a single-config request, or the composite
// document assembled from the per-entry parsed responses for a
// multi-config request (byte-identical to rendering the batch cold —
// MarshalMultiResponse over the same structs). Hit/coalesced counters
// are recorded here, once per entry, when the outcome is final; the
// request's overall outcome is its worst entry's.
func (s *Server) serveAssembled(w http.ResponseWriter, log *slog.Logger, start time.Time,
	sp *obs.Spans, entries []*resultEntry, outcomes []cacheStatus, multi bool,
	etag string, opts harness.Options, ncfgs int) {
	var body []byte
	if multi {
		resp := MultiSweepResponse{Sweeps: make([]SweepResponse, 0, len(entries))}
		for _, e := range entries {
			if e.resp == nil {
				s.metrics.requestsErrored.Add(1)
				s.writeError(w, http.StatusInternalServerError,
					errors.New("cache entry has no parsed response"))
				return
			}
			resp.Sweeps = append(resp.Sweeps, *e.resp)
		}
		var err error
		if body, err = MarshalMultiResponse(resp); err != nil {
			s.metrics.requestsErrored.Add(1)
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	} else {
		body = entries[0].body
	}

	overall := cacheHit
	for i, o := range outcomes {
		s.results.served(entries[i], o)
		overall = overall.worse(o)
	}
	s.writeSweepBody(w, log, start, sp, body, overall, etag, "", "", opts, ncfgs)
}

// writeSweepBody writes a completed sweep body with its cache headers
// (and, on a shard front-end, the replica headers), accounts the
// request, and sets the stage trailer and the completion log line.
func (s *Server) writeSweepBody(w http.ResponseWriter, log *slog.Logger, start time.Time,
	sp *obs.Spans, body []byte, outcome cacheStatus, etag, replica, backendStatus string,
	opts harness.Options, ncfgs int) {
	s.metrics.observeLatency(time.Since(start))
	s.metrics.requestsOK.Add(1)
	// The stage timeline travels as an HTTP trailer (declared before
	// the body, set after) so it can include the render stage itself.
	w.Header().Set("Trailer", stagesTrailer)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("ETag", etag)
	w.Header().Set(cacheStatusHeader, string(outcome))
	if replica != "" {
		w.Header().Set(shardReplicaHeader, replica)
	}
	if backendStatus != "" {
		w.Header().Set(backendCacheStatusHeader, backendStatus)
	}
	w.Write(body)
	sp.Mark("render")
	w.Header().Set(stagesTrailer, sp.Header())
	if replica != "" {
		log = log.With("replica", replica)
	}
	log.Info("sweep done",
		"configs", ncfgs,
		"programs", len(opts.Programs),
		"instructions", opts.Instructions,
		"cache", string(outcome),
		"dur_ms", time.Since(start).Milliseconds(),
		"stages", sp,
		"queue", len(s.queue))
}

// stagesTrailer carries the request's stage timeline
// ("admit;dur=0.1, queue;dur=0.0, ..." — milliseconds) to clients that
// read trailers; the same timeline logs structurally via slog.
const stagesTrailer = "X-Request-Stages"

// streamSweep is the NDJSON variant of the sweep endpoint: one line
// per program result as soon as it folds (suite order, so the stream
// is deterministic), then a final line with the suite aggregates.
// Errors after the first line can only be signaled by truncating the
// stream — the terminal "aggregates" line doubles as the success
// marker clients check for.
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, log *slog.Logger, start time.Time, sp *obs.Spans, cfg core.Config, opts harness.Options) {
	ts, err := harness.LoadTracesCached(ctx, s.sched, opts, s.cache)
	if err != nil {
		elapsed := time.Since(start)
		s.metrics.observeLatency(elapsed)
		s.failSweep(w, log, err, elapsed)
		return
	}
	sp.Mark("capture")
	w.Header().Set("Trailer", stagesTrailer)
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	res, err := harness.RunConfigCtxAsync(ctx, s.sched, s.tappedH2P(ts, nil), cfg).WaitEach(ctx,
		func(name string, r metrics.Result) error {
			line := struct {
				Program string        `json:"program"`
				Result  ProgramResult `json:"result"`
			}{name, newProgramResult(r)}
			if err := enc.Encode(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	elapsed := time.Since(start)
	s.metrics.observeLatency(elapsed)
	if err != nil {
		// Headers are out; all we can do is truncate. Record why.
		s.failStreamed(log, err, elapsed)
		return
	}
	sp.Mark("simulate")
	final := struct {
		Aggregates map[string]ProgramResult `json:"aggregates"`
	}{map[string]ProgramResult{
		"CINT95": newProgramResult(res.Int),
		"CFP95":  newProgramResult(res.FP),
	}}
	if err := enc.Encode(final); err != nil {
		s.failStreamed(log, err, elapsed)
		return
	}
	s.metrics.requestsOK.Add(1)
	sp.Mark("render")
	w.Header().Set(stagesTrailer, sp.Header())
	log.Info("sweep streamed",
		"config", cfg.String(),
		"programs", len(opts.Programs),
		"instructions", opts.Instructions,
		"dur_ms", elapsed.Milliseconds(),
		"stages", sp,
		"queue", len(s.queue))
}

// failStreamed accounts a failure that happened after the response
// status was already committed.
func (s *Server) failStreamed(log *slog.Logger, err error, elapsed time.Duration) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.metrics.requestsCancelled.Add(1)
		log.Info("stream cancelled", "dur_ms", elapsed.Milliseconds())
	default:
		s.metrics.requestsErrored.Add(1)
		s.countPanic(log, err)
		log.Error("stream failed", "err", err, "dur_ms", elapsed.Milliseconds())
	}
}

// failSweep maps a sweep failure to a response and metrics.
func (s *Server) failSweep(w http.ResponseWriter, log *slog.Logger, err error, elapsed time.Duration) {
	switch {
	case errors.Is(err, context.Canceled):
		// Client went away; nobody reads this response, but complete it.
		s.metrics.requestsCancelled.Add(1)
		log.Info("sweep cancelled", "dur_ms", elapsed.Milliseconds())
		s.writeError(w, 499, errors.New("request cancelled"))
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.requestsCancelled.Add(1)
		log.Warn("sweep timed out", "dur_ms", elapsed.Milliseconds())
		s.writeError(w, http.StatusGatewayTimeout, errors.New("request timed out"))
	case errors.Is(err, core.ErrInvalidConfig):
		s.metrics.requestsBad.Add(1)
		s.writeError(w, http.StatusBadRequest, err)
	default:
		s.metrics.requestsErrored.Add(1)
		s.countPanic(log, err)
		log.Error("sweep failed", "err", err)
		s.writeError(w, http.StatusInternalServerError, err)
	}
}

// countPanic counts and logs, with its stack, a failure caused by a
// panicking pool job. The pool recovered the panic into this request's
// futures alone, so the server and every other request carry on.
func (s *Server) countPanic(log *slog.Logger, err error) {
	var pe *harness.PanicError
	if errors.As(err, &pe) {
		s.metrics.jobPanics.Add(1)
		log.Error("sweep job panicked", "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
}

// writeError emits a small JSON error document; validation failures
// include the offending config field when known.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	doc := struct {
		Error string `json:"error"`
		Field string `json:"field,omitempty"`
	}{Error: err.Error()}
	var fe *core.FieldError
	if errors.As(err, &fe) {
		doc.Field = fe.Field
	}
	json.NewEncoder(w).Encode(doc)
}

// handleWorkloads lists the built-in benchmark suite.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		Workloads []string `json:"workloads"`
		Int       []string `json:"int"`
		FP        []string `json:"fp"`
	}{workload.Names(), workload.IntNames(), workload.FPNames()})
}

// handlePredictors lists the direction-prediction strategy families
// linked into this binary, with their default parameters — the
// discovery surface for clients building sweep configs by hand. The
// "kind" value is what a config's Predictor field takes; "name" is the
// CLI spelling (-predictor).
func (s *Server) handlePredictors(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		Predictors []core.PredictorInfo `json:"predictors"`
	}{core.RegisteredPredictors()})
}

// handleHealthz reports liveness; a draining server answers 503 so
// load balancers stop routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.drainingNow() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok queue="+strconv.Itoa(len(s.queue))+"/"+strconv.Itoa(cap(s.queue)))
	b := s.metrics.build
	fmt.Fprintln(w, "build "+b.GoVersion+" "+b.Version+" "+b.Revision)
}
