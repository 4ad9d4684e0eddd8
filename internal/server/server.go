// Package server is the mbbpd simulation service: a long-running
// HTTP/JSON front end over the paper's fetch-prediction engine. Sweep
// requests (configuration × workload set × instruction count) are
// validated, admitted through a bounded queue (full ⇒ 429 +
// Retry-After), and batched onto one shared work-stealing pool; request
// contexts (client disconnect, per-request timeout) cancel queued and
// running jobs, and results reuse the exact drivers the CLI runs — a
// sweep's JSON body is byte-identical to the serial harness reference
// for the same request.
//
// Two instances of one singleflight cache type (internal/flight) front
// the work. Captured traces are shared across concurrent requests by
// the trace loader's instance. Because sweeps are pure functions of the
// request, whole rendered bodies are content-addressed and cached in
// the other (resultcache.go): repeat requests are served from memory
// without a queue slot, identical concurrent requests coalesce onto
// one computation, and strong ETags derived from the canonical request
// key give clients If-None-Match → 304 revalidation. One serve loop
// (serveCached) runs every non-streamed sweep through the result
// cache; what varies is the keys it resolves and how it fills a miss.
// A standalone server keys per configuration and simulates; a server
// fronting a pool of replicas (shard.go) keys the whole request, routes
// it to a replica on a consistent-hash ring, proxies the body through
// unchanged, and degrades to local execution when every replica is
// down.
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
	"mbbp/internal/flight"
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
	cache   *flight.Cache[harness.TraceKey, *trace.Buffer]
	results *flight.Cache[string, sweepValue]
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
	// about to wait on another request's in-flight entry (installed
	// with flight.WithJoinHook on the result-cache lookup only).
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
		cache:   flight.New[harness.TraceKey, *trace.Buffer](cfg.CacheEntries),
		results: flight.New[string, sweepValue](cfg.ResultCacheEntries),
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
	src := metricSources{
		queue:       s.queue,
		traceStats:  s.cache.Stats,
		resultStats: s.results.Stats,
		poolStats:   s.sched.Stats,
		h2pSnap:     s.h2p.snapshot,
		tap:         s.tap,
	}
	if s.pool != nil {
		src.shardSnap = s.pool.snapshot
	}
	s.metrics = newMetricsSet(src)
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

// admit reserves a queue slot, or reports why it cannot. The slot
// counts as in flight on /metrics (the queue's length) until release.
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
	stream := r.URL.Query().Get("stream") == "ndjson" || r.Header.Get("Accept") == "application/x-ndjson"
	call, err := req.parseAll(s.cfg.MaxInstructions, stream)
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
	if stream {
		release, status := s.admit()
		if status != 0 {
			s.refuse(w, log, status)
			return
		}
		defer release()
		sp.Mark("queue")
		if s.hookAdmitted != nil {
			s.hookAdmitted(ctx)
		}
		s.streamSweep(ctx, w, log, start, sp, call.cfgs[0], call.opts)
		return
	}

	keys, reqKey, err := sweepKeys(call.cfgs, call.opts, call.multi)
	if err != nil {
		// Unreachable in practice: parseAll validated every config.
		s.metrics.requestsErrored.Add(1)
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if call.h2pN > 0 {
		keys, reqKey = h2pKeys(keys, reqKey, call.h2pN)
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

	plan := sweepPlan{keys: keys, whole: !call.multi, fill: s.computeFill(call)}
	if s.pool != nil {
		plan = sweepPlan{keys: []string{reqKey}, whole: true, fill: s.proxyFill(call, log, raw, rid, reqKey)}
	}
	s.serveCached(ctx, w, log, start, sp, call, plan, etag)
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

// sweepPlan is what differs between the ways serveCached produces a
// sweep: which result-cache entries the request resolves and how the
// entries it claims are filled.
type sweepPlan struct {
	// keys are the entries: one per configuration on a standalone
	// server, so entries warmed by single-config requests serve
	// multi-config ones and vice versa; the one whole-request key on a
	// shard front-end.
	keys []string
	// whole reports that each entry is a whole response body; otherwise
	// the multi-config body is assembled from the entries' parsed
	// responses.
	whole bool
	fill  fillFunc
}

// fillFunc produces the values of a request's claimed entries (indexes
// into its plan's keys), in order, and names their origin.
type fillFunc func(ctx context.Context, sp *obs.Spans, claimed []int) ([]sweepValue, origin, error)

// origin names where a filled body came from on a shard front-end: the
// answering replica (or "local" in degraded mode) and the replica's own
// Cache-Status. Both are empty for a locally computed body.
type origin struct{ replica, backendStatus string }

// serveCached answers a non-streamed sweep through the result cache —
// the one serve loop of a standalone server and a shard front-end. A
// draining server refuses with 503 (hits never pass admit); otherwise
// the request resolves its plan's keys with one results.Do call, which
// takes a queue slot only when some key is absent (so hot traffic is
// immune to admission backpressure) and fills the entries it claims
// with plan.fill. The body is written with the worst entry outcome as
// its Cache-Status.
func (s *Server) serveCached(ctx context.Context, w http.ResponseWriter, log *slog.Logger,
	start time.Time, sp *obs.Spans, call sweepCall, plan sweepPlan, etag string) {
	if s.drainingNow() {
		s.refuse(w, log, http.StatusServiceUnavailable)
		return
	}
	var refused int
	admit := func() (func(), error) {
		release, status := s.admit()
		if status != 0 {
			refused = status
			return nil, errRefused
		}
		sp.Mark("queue")
		if s.hookAdmitted != nil {
			s.hookAdmitted(ctx)
		}
		return release, nil
	}
	var from origin
	fill := func(claimed []int) ([]sweepValue, error) {
		if s.hookComputing != nil {
			s.hookComputing()
		}
		values, o, err := plan.fill(ctx, sp, claimed)
		from = o
		return values, err
	}
	doCtx := ctx
	if s.hookCoalescing != nil {
		doCtx = flight.WithJoinHook(ctx, s.hookCoalescing)
	}
	values, outcomes, err := s.results.Do(doCtx, plan.keys, admit, fill)
	switch {
	case refused != 0:
		s.refuse(w, log, refused)
		return
	case err != nil:
		elapsed := time.Since(start)
		s.metrics.observeLatency(elapsed)
		s.failSweep(w, log, err, elapsed)
		return
	}

	body := values[0].body
	if !plan.whole {
		resp := MultiSweepResponse{Sweeps: make([]SweepResponse, len(values))}
		for i, v := range values {
			resp.Sweeps[i] = *v.resp
		}
		if body, err = MarshalMultiResponse(resp); err != nil {
			s.metrics.requestsErrored.Add(1)
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	s.writeSweepBody(w, log, start, sp, body, statusOf(outcomes), etag, from, call.opts, len(call.cfgs))
}

// errRefused is the admit error of a request the queue turned away;
// serveCached answers it with the refusal status admit recorded.
var errRefused = errors.New("server: admission refused")

// computeFill is a standalone server's fill: the claimed
// configurations run as one lane batch through computeSweeps, and each
// entry stores its rendered body with the parsed response.
func (s *Server) computeFill(call sweepCall) fillFunc {
	return func(ctx context.Context, sp *obs.Spans, claimed []int) ([]sweepValue, origin, error) {
		cfgs := make([]core.Config, len(claimed))
		for j, i := range claimed {
			cfgs[j] = call.cfgs[i]
		}
		resps, err := s.computeSweeps(ctx, sp, cfgs, call.opts, call.h2pN)
		if err != nil {
			return nil, origin{}, err
		}
		values := make([]sweepValue, len(resps))
		for j := range resps {
			body, err := MarshalResponse(resps[j])
			if err != nil {
				return nil, origin{}, err
			}
			values[j] = sweepValue{body: body, resp: &resps[j]}
		}
		return values, origin{}, nil
	}
}

// computeSweeps is the one place mbbpd simulates: it runs a request's
// configurations as one lane batch over the (cached) trace set — a
// single-config request is a batch of one — and builds one response
// per configuration, in order. Configurations sharing a cache geometry
// run as lockstep lanes of one trace walk per program. Duplicate
// configurations run once (the batch collapses them into one lane):
// with h2p on they share one accumulator, which must see exactly one
// lane's events.
func (s *Server) computeSweeps(ctx context.Context, sp *obs.Spans, cfgs []core.Config,
	opts harness.Options, h2pN int) ([]SweepResponse, error) {
	h2p := s.newH2PState(h2pN, cfgs, opts.Programs)
	ts, err := harness.LoadTracesCached(ctx, s.sched, opts, s.cache)
	if err != nil {
		return nil, err
	}
	sp.Mark("capture")
	b := harness.NewBatchCtx(ctx, s.sched, s.tappedH2P(ts, h2p))
	promises := make([]*harness.SuitePromise, len(cfgs))
	for i, cfg := range cfgs {
		promises[i] = b.RunConfig(cfg)
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

// writeSweepBody writes a completed sweep body with its cache headers
// (and, on a shard front-end, the replica headers), accounts the
// request, and sets the stage trailer and the completion log line.
func (s *Server) writeSweepBody(w http.ResponseWriter, log *slog.Logger, start time.Time,
	sp *obs.Spans, body []byte, outcome cacheStatus, etag string, from origin,
	opts harness.Options, ncfgs int) {
	s.metrics.observeLatency(time.Since(start))
	s.metrics.requestsOK.Add(1)
	// The stage timeline travels as an HTTP trailer (declared before
	// the body, set after) so it can include the render stage itself.
	w.Header().Set("Trailer", stagesTrailer)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("ETag", etag)
	w.Header().Set(cacheStatusHeader, string(outcome))
	if from.replica != "" {
		w.Header().Set(shardReplicaHeader, from.replica)
	}
	if from.backendStatus != "" {
		w.Header().Set(backendCacheStatusHeader, from.backendStatus)
	}
	w.Write(body)
	sp.Mark("render")
	w.Header().Set(stagesTrailer, sp.Header())
	if from.replica != "" {
		log = log.With("replica", from.replica)
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
	b := harness.NewBatchCtx(ctx, s.sched, s.tappedH2P(ts, nil))
	p := b.RunConfig(cfg)
	b.Flush()
	res, err := p.WaitEach(ctx,
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
	var re *replicaError
	switch {
	case errors.As(err, &re):
		// The front-end validated the request, so a replica's own
		// non-retryable verdict is the replica's to report: it passes
		// through unchanged (and was never cached).
		s.metrics.requestsErrored.Add(1)
		log.Error("replica error passed through", "replica", re.replica, "status", re.code)
		if re.contentType != "" {
			w.Header().Set("Content-Type", re.contentType)
		}
		w.Header().Set(shardReplicaHeader, re.replica)
		w.WriteHeader(re.code)
		w.Write(re.body)
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
