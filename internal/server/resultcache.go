package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mbbp/internal/core"
	"mbbp/internal/harness"
)

// The content-addressed result cache. Sweeps are pure functions of
// (validated config × workload set × instruction count × warmup): the
// same request always renders a byte-identical body, so whole rendered
// responses are perfectly cacheable, keyed by a canonical hash of the
// request semantics. This is the trace.Cache pattern lifted one level:
// trace.Cache deduplicates the *capture* stage across concurrent
// requests; resultCache deduplicates the entire request. The same
// singleflight discipline applies — the first request for a key
// computes while identical concurrent requests coalesce onto the
// in-flight entry — and the same second-chance (clock) eviction keeps
// warm hits off the exclusive lock.
//
// Keying and layering:
//
//   - A single-config request's key is canonicalSweepKey: SHA-256 over
//     the config's canonical bytes (core.Config.CanonicalBytes — the
//     validated struct, so every JSON spelling of one config shares a
//     key) plus the resolved program list, instruction count, and
//     warmup flag.
//   - A multi-config request reuses the *same per-entry keys* as the
//     equivalent single-config requests, so a multi sweep hits
//     per-entry: entries warmed by single requests serve multi
//     requests and vice versa. The whole-request key (multiSweepKey,
//     used for the ETag and for shard routing) is a hash over the
//     entry keys.
//   - NDJSON streaming responses bypass this cache entirely: a stream
//     is an incremental representation with client-observable pacing,
//     not a content-addressed document. Streamed runs still share the
//     trace.Cache below.
//
// Entries store the fully rendered body (what goes on the wire) and,
// for locally computed single-config entries, the parsed SweepResponse
// so multi-config requests can assemble their composite body from
// per-entry hits without re-simulating. Errors are never cached:
// a failed compute drops its entry and coalesced waiters retry under
// their own contexts, exactly like trace.Cache.
type resultCache struct {
	mu      sync.RWMutex
	cap     int
	entries map[string]*resultEntry
	lru     *list.List // front = most recently inserted/spared; values are *resultEntry

	hits, misses, coalesced, evictions atomic.Uint64
}

type resultEntry struct {
	key  string
	elem *list.Element

	// touched is set lock-free by every warm hit and consumed by the
	// evictor (second chance): a touched entry is spared once instead
	// of evicted.
	touched atomic.Bool

	done chan struct{} // closed when body/resp/err are set
	body []byte
	resp *SweepResponse // non-nil only for locally computed single-config entries
	err  error
}

// completed reports whether the entry has resolved, without blocking.
func (e *resultEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*resultEntry),
		lru:     list.New(),
	}
}

// probe returns the entry for key (completed or in-flight) or nil,
// taking only the shared lock — the warm path of a hot sweep workload
// never serializes on the cache mutex.
func (c *resultCache) probe(key string) *resultEntry {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	return e
}

// claim returns the entry for key, creating an in-flight entry (and
// counting a miss) if none exists. claimed reports whether the caller
// owns the flight and must resolve it.
func (c *resultCache) claim(key string) (e *resultEntry, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		return e, false
	}
	c.misses.Add(1)
	e = &resultEntry{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	return e, true
}

// resolve completes a claimed flight. A nil err publishes the body (and
// optional parsed response) to every waiter; a non-nil err drops the
// entry so later requests recompute — failures are never cached, since
// the owner's failure may be its own context dying, which says nothing
// about the waiters' requests.
func (c *resultCache) resolve(e *resultEntry, body []byte, resp *SweepResponse, err error) {
	e.body, e.resp, e.err = body, resp, err
	if err != nil {
		c.mu.Lock()
		if c.entries[e.key] == e {
			delete(c.entries, e.key)
			c.lru.Remove(e.elem)
		}
		c.mu.Unlock()
	}
	close(e.done)
}

// served records e's final outcome for one response: a hit counts and
// marks the entry touched (spared once by the evictor), a coalesced
// wait counts, and a miss was already counted when it was claimed.
func (c *resultCache) served(e *resultEntry, o cacheStatus) {
	switch o {
	case cacheHit:
		c.hits.Add(1)
		e.touched.Store(true)
	case cacheCoalesced:
		c.coalesced.Add(1)
	}
}

// await blocks until e resolves or ctx dies. It does not record hit or
// coalesced counts — the caller knows which path it took (served).
func (c *resultCache) await(ctx context.Context, e *resultEntry) error {
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// evictLocked trims beyond capacity, second-chance style (the
// trace.Cache discipline): from the back, a touched completed entry is
// spared once, an untouched completed entry is evicted, and in-flight
// entries are skipped — their owner and waiters hold them anyway. Two
// passes bound the scan.
func (c *resultCache) evictLocked() {
	for pass := 0; pass < 2 && c.lru.Len() > c.cap; pass++ {
		for elem := c.lru.Back(); elem != nil && c.lru.Len() > c.cap; {
			e := elem.Value.(*resultEntry)
			prev := elem.Prev()
			if e.completed() {
				if e.touched.Swap(false) {
					c.lru.MoveToFront(elem)
				} else {
					delete(c.entries, e.key)
					c.lru.Remove(elem)
					c.evictions.Add(1)
				}
			}
			elem = prev
		}
	}
}

// Len returns the number of cached (including in-flight) entries.
func (c *resultCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lru.Len()
}

// resultCacheStats is one consistent-enough scrape of the counters
// (each is atomic; they are read in one pass).
type resultCacheStats struct {
	Hits, Misses, Coalesced, Evictions uint64
}

func (c *resultCache) stats() resultCacheStats {
	return resultCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
}

// cacheStatus is the Cache-Status header value: how this response was
// produced relative to the result cache.
type cacheStatus string

const (
	cacheHit       cacheStatus = "hit"       // served from a completed entry
	cacheMiss      cacheStatus = "miss"      // this request computed (or proxied) the body
	cacheCoalesced cacheStatus = "coalesced" // waited on another request's in-flight compute
)

// cacheStatusHeader is the response header naming the cache outcome.
const cacheStatusHeader = "Cache-Status"

// worse merges per-entry outcomes for a multi-config request: one
// computed entry makes the whole request a miss, otherwise one awaited
// entry makes it coalesced, otherwise everything was already resolved
// and the request is a pure hit.
func (s cacheStatus) worse(o cacheStatus) cacheStatus {
	rank := map[cacheStatus]int{cacheHit: 0, cacheCoalesced: 1, cacheMiss: 2}
	if rank[o] > rank[s] {
		return o
	}
	return s
}

// resultCacheBuild is the build-identity dimension of every sweep key.
// A sweep body is a pure function of the request *for one build of the
// simulator* — across builds the engine itself may differ — so the
// key (and therefore the ETag and shard routing) hashes the binary's
// identity too: in a mixed-version pool, replicas on different builds
// key the same request apart and can never serve each other's bodies,
// and clients revalidating across a deploy get a fresh body instead of
// a stale 304. Constant within a process, so all within-process cache
// behavior (singleflight, hit/miss, ETag stability) is unchanged.
var resultCacheBuild = func() string {
	b := readBuildInfo()
	return b.GoVersion + "|" + b.Version + "|" + b.Revision
}()

// canonicalSweepKey is the content address of one single-config sweep:
// hex SHA-256 over a canonical serialization of everything the
// response body is a function of. The program list is the *resolved*
// list (an empty request already defaulted to the full suite), so
// "no programs" and "all programs spelled out" share a key. Program
// order is significant — the response's Results array follows it.
func canonicalSweepKey(cfg core.Config, o harness.Options) (string, error) {
	cb, err := cfg.CanonicalBytes()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "mbbp/sweep/v2\nbuild=%s\nconfig=%s\nn=%d\nwarmup=%t\nprograms=%s\n",
		resultCacheBuild, cb, o.Instructions, o.Warmup, strings.Join(o.Programs, ","))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// h2pKeys derives the variant keys for an h2p-enabled request: the h2p
// section changes the body, so the top-N joins every entry key and the
// whole-request key. Plain requests keep their historical keys — the
// two families can never collide on a cache entry or an ETag.
func h2pKeys(entryKeys []string, reqKey string, topN int) ([]string, string) {
	suffix := fmt.Sprintf(":h2p=%d", topN)
	out := make([]string, len(entryKeys))
	for i, k := range entryKeys {
		out[i] = k + suffix
	}
	return out, reqKey + suffix
}

// multiSweepKey is the whole-request content address of a multi-config
// sweep: a hash over the per-entry keys, in request order.
func multiSweepKey(entryKeys []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "mbbp/multisweep/v1\n%s\n", strings.Join(entryKeys, "\n"))
	return hex.EncodeToString(h.Sum(nil))
}

// sweepKeys derives the per-entry keys and the whole-request key for a
// parsed request. For a single-config request the two coincide.
func sweepKeys(cfgs []core.Config, o harness.Options, multi bool) (entryKeys []string, reqKey string, err error) {
	entryKeys = make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if entryKeys[i], err = canonicalSweepKey(cfg, o); err != nil {
			return nil, "", err
		}
	}
	if multi {
		return entryKeys, multiSweepKey(entryKeys), nil
	}
	return entryKeys, entryKeys[0], nil
}

// etagFor renders the strong ETag for a request key: a quoted hash of
// the canonical key. Because the key → body mapping is a pure function,
// the key's hash is a valid strong validator, and it is stable across
// restarts and across replicas by construction.
func etagFor(reqKey string) string { return `"` + reqKey + `"` }

// etagMatches implements the If-None-Match comparison for our strong
// ETags: a list of entity tags, or the wildcard.
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	if ifNoneMatch == "*" {
		return true
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		// A client may echo a weak validator prefix; our tags are
		// strong, and If-None-Match uses weak comparison, so strip it.
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}
