package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/obs"
	"mbbp/internal/shard"
)

// Shard mode: one mbbpd fronts a pool of replicas. The front-end
// derives the canonical sweep key exactly as a standalone server would
// (so its ETag/304 handling and result cache work unchanged), then
// routes the whole request to a replica chosen by consistent hashing of
// that key — every replica sees a stable, disjoint slice of the key
// space, so the pool's aggregate cache capacity is the sum of the
// replicas' caches with no duplication. The client's own body bytes are
// forwarded and the replica's body is returned unchanged; since both
// sides compute the same canonical key, the replica's ETag equals the
// front-end's, and the byte-identity invariant (proxied body == cold
// local run) holds by construction because the replica runs the same
// engine.
//
// Failure handling is passive and local to the front-end: a replica
// that refuses a connection or answers a retryable status (429/502/503)
// is marked failed and the request walks to the next replica in the
// ring's failover order (shard.Ring.Order); failed replicas sit out a
// cooldown before being retried. When every replica is unreachable the
// front-end degrades to executing the sweep locally — slower, but no
// request fails because the pool is down.

const (
	// shardReplicaHeader names the replica (or "local") that produced a
	// proxied response body.
	shardReplicaHeader = "X-Shard-Replica"
	// backendCacheStatusHeader relays the replica's own Cache-Status, so
	// the two cache layers stay distinguishable from the client side.
	backendCacheStatusHeader = "X-Backend-Cache-Status"
	// shardCooldown is how long a failed replica sits out before the
	// front-end tries it again.
	shardCooldown = 15 * time.Second
)

// shardPool is the front-end's view of the replica set: the routing
// ring, an HTTP client, passive per-replica health, and route counters.
type shardPool struct {
	ring     *shard.Ring
	addrs    []string // as configured, index-aligned with ring replicas
	bases    []string // normalized base URLs
	client   *http.Client
	cooldown time.Duration

	mu       sync.Mutex
	lastFail []time.Time // zero = healthy

	routes    []atomic.Uint64 // successful proxies per replica
	reroutes  atomic.Uint64   // attempts sent anywhere but the key's owner
	fallbacks atomic.Uint64   // requests degraded to local execution
}

func newShardPool(addrs []string, timeout time.Duration) (*shardPool, error) {
	ring, err := shard.New(addrs, 0)
	if err != nil {
		return nil, err
	}
	p := &shardPool{
		ring:     ring,
		addrs:    ring.Replicas(),
		bases:    make([]string, len(addrs)),
		client:   &http.Client{Timeout: timeout},
		cooldown: shardCooldown,
		lastFail: make([]time.Time, len(addrs)),
		routes:   make([]atomic.Uint64, len(addrs)),
	}
	for i, a := range p.addrs {
		if strings.Contains(a, "://") {
			p.bases[i] = strings.TrimRight(a, "/")
		} else {
			p.bases[i] = "http://" + a
		}
	}
	return p, nil
}

// retryableStatus reports whether a replica's response status means
// "try another replica": overload and gateway-style failures, not
// verdicts about the request itself.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

func (p *shardPool) markFailed(idx int) {
	p.mu.Lock()
	p.lastFail[idx] = time.Now()
	p.mu.Unlock()
}

func (p *shardPool) markOK(idx int) {
	p.mu.Lock()
	p.lastFail[idx] = time.Time{}
	p.mu.Unlock()
}

// do proxies one sweep body to the replica pool: healthy replicas in
// the key's ring-walk order first, then cooling-down ones as a recovery
// probe. A non-nil error means no replica was reachable at all (or ctx
// died); otherwise the returned status/body/headers are the answering
// replica's, whatever the status was.
func (p *shardPool) do(ctx context.Context, key, rid string, body []byte) (code int, respBody []byte, hdr http.Header, replica string, err error) {
	order := p.ring.Order(key)
	now := time.Now()
	var live, cooling []int
	p.mu.Lock()
	for _, idx := range order {
		if lf := p.lastFail[idx]; !lf.IsZero() && now.Sub(lf) < p.cooldown {
			cooling = append(cooling, idx)
		} else {
			live = append(live, idx)
		}
	}
	p.mu.Unlock()

	var lastErr error
	for _, idx := range append(live, cooling...) {
		if idx != order[0] {
			p.reroutes.Add(1)
		}
		code, b, h, err := p.post(ctx, p.bases[idx], rid, body)
		if err != nil || retryableStatus(code) {
			p.markFailed(idx)
			if err == nil {
				err = fmt.Errorf("replica %s answered %d", p.addrs[idx], code)
			}
			lastErr = err
			if ctx.Err() != nil {
				return 0, nil, nil, "", ctx.Err()
			}
			continue
		}
		p.markOK(idx)
		p.routes[idx].Add(1)
		return code, b, h, p.addrs[idx], nil
	}
	if lastErr == nil {
		lastErr = errors.New("no replicas configured")
	}
	return 0, nil, nil, "", fmt.Errorf("shard: no replica reachable: %w", lastErr)
}

func (p *shardPool) post(ctx context.Context, base, rid string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The front-end's request ID rides along so the replica's log lines
	// carry the same ID — one grep stitches a fleet-routed request
	// across front-end and replica logs.
	if rid != "" {
		req.Header.Set(requestIDHeader, rid)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// replicaStat is one replica's routing view in a metrics snapshot.
type replicaStat struct {
	Addr    string
	Routes  uint64
	Healthy bool
}

// shardSnapshot is one consistent-enough scrape of the pool.
type shardSnapshot struct {
	Replicas  []replicaStat
	Reroutes  uint64
	Fallbacks uint64
}

func (p *shardPool) snapshot() *shardSnapshot {
	s := &shardSnapshot{
		Replicas:  make([]replicaStat, len(p.addrs)),
		Reroutes:  p.reroutes.Load(),
		Fallbacks: p.fallbacks.Load(),
	}
	now := time.Now()
	p.mu.Lock()
	for i, a := range p.addrs {
		lf := p.lastFail[i]
		s.Replicas[i] = replicaStat{
			Addr:    a,
			Routes:  p.routes[i].Load(),
			Healthy: lf.IsZero() || now.Sub(lf) >= p.cooldown,
		}
	}
	p.mu.Unlock()
	return s
}

// serveSharded answers a (non-streaming) sweep by routing it to the
// replica pool, fronted by this server's own result cache keyed on the
// whole-request key. The singleflight discipline is identical to the
// local path: one request proxies while identical concurrent requests
// coalesce; proxy failures are never cached.
func (s *Server) serveSharded(ctx context.Context, w http.ResponseWriter, log *slog.Logger,
	start time.Time, sp *obs.Spans, raw []byte, rid string, cfgs []core.Config, opts harness.Options,
	multi bool, h2pN int, reqKey, etag string) {
	for {
		if s.drainingNow() {
			s.refuse(w, log, http.StatusServiceUnavailable)
			return
		}

		// Fast path: cached or in-flight, no queue slot.
		if e := s.results.probe(reqKey); e != nil {
			outcome := cacheCoalesced
			if e.completed() {
				outcome = cacheHit
			} else if s.hookCoalescing != nil {
				s.hookCoalescing()
			}
			if retry, ok := s.awaitShardEntry(ctx, w, log, start, e); !ok {
				return
			} else if retry {
				continue
			}
			s.results.served(e, outcome)
			s.writeSweepBody(w, log, start, sp, e.body, outcome, etag, "", "", opts, len(cfgs))
			return
		}

		release, status := s.admit()
		if status != 0 {
			s.refuse(w, log, status)
			return
		}
		s.metrics.inflight.Add(1)
		done := func() { release(); s.metrics.inflight.Add(-1) }
		sp.Mark("queue")
		if s.hookAdmitted != nil {
			s.hookAdmitted(ctx)
		}

		e, claimed := s.results.claim(reqKey)
		if !claimed {
			// Someone else owns the flight; give the slot back and wait.
			done()
			outcome := cacheCoalesced
			if e.completed() {
				outcome = cacheHit
			}
			if retry, ok := s.awaitShardEntry(ctx, w, log, start, e); !ok {
				return
			} else if retry {
				continue
			}
			s.results.served(e, outcome)
			s.writeSweepBody(w, log, start, sp, e.body, outcome, etag, "", "", opts, len(cfgs))
			return
		}

		if s.hookComputing != nil {
			s.hookComputing()
		}
		code, body, hdr, replica, err := s.pool.do(ctx, reqKey, rid, raw)
		switch {
		case err == nil && code == http.StatusOK:
			s.results.resolve(e, body, nil, nil)
			done()
			sp.Mark("proxy")
			s.writeSweepBody(w, log, start, sp, body, cacheMiss, etag, replica,
				hdr.Get(cacheStatusHeader), opts, len(cfgs))
			return
		case err == nil:
			// A replica answered with a non-retryable failure. Pass its
			// verdict through uncached — the front-end validated the
			// request, so this is the replica's problem to report.
			s.results.resolve(e, nil, nil, fmt.Errorf("replica %s answered %d", replica, code))
			done()
			s.metrics.requestsErrored.Add(1)
			s.metrics.observeLatency(time.Since(start))
			log.Error("replica error passed through", "replica", replica, "status", code)
			if ct := hdr.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.Header().Set(shardReplicaHeader, replica)
			w.WriteHeader(code)
			w.Write(body)
			return
		case ctx.Err() != nil:
			s.results.resolve(e, nil, nil, ctx.Err())
			done()
			elapsed := time.Since(start)
			s.metrics.observeLatency(elapsed)
			s.failSweep(w, log, ctx.Err(), elapsed)
			return
		}

		// Every replica unreachable: degrade to local execution so the
		// request still succeeds (and warms this front-end's cache).
		s.pool.fallbacks.Add(1)
		log.Warn("all replicas unreachable; running sweep locally", "err", err)
		body, lerr := s.computeBodyLocal(ctx, sp, cfgs, opts, multi, h2pN)
		if lerr != nil {
			s.results.resolve(e, nil, nil, lerr)
			done()
			elapsed := time.Since(start)
			s.metrics.observeLatency(elapsed)
			s.failSweep(w, log, lerr, elapsed)
			return
		}
		s.results.resolve(e, body, nil, nil)
		done()
		s.writeSweepBody(w, log, start, sp, body, cacheMiss, etag, "local", "", opts, len(cfgs))
		return
	}
}

// awaitShardEntry waits out another request's flight. ok=false means
// this request failed and was answered; retry=true means the flight
// owner failed (entry dropped) and the caller should start over.
func (s *Server) awaitShardEntry(ctx context.Context, w http.ResponseWriter, log *slog.Logger,
	start time.Time, e *resultEntry) (retry, ok bool) {
	if err := s.results.await(ctx, e); err != nil {
		elapsed := time.Since(start)
		s.metrics.observeLatency(elapsed)
		s.failSweep(w, log, err, elapsed)
		return false, false
	}
	if e.err != nil {
		return true, true
	}
	return false, true
}

// computeBodyLocal is the shard front-end's degraded mode: run the
// sweep on the local engine through computeSweeps, the path a replica
// runs, so the body is byte-identical to what a healthy replica would
// have sent.
func (s *Server) computeBodyLocal(ctx context.Context, sp *obs.Spans, cfgs []core.Config,
	opts harness.Options, multi bool, h2pN int) ([]byte, error) {
	resps, err := s.computeSweeps(ctx, sp, cfgs, opts, h2pN)
	if err != nil {
		return nil, err
	}
	if multi {
		return MarshalMultiResponse(MultiSweepResponse{Sweeps: resps})
	}
	return MarshalResponse(resps[0])
}
