package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/harness"
)

// The content-addressed result cache. Sweeps are pure functions of
// (validated config × workload set × instruction count × warmup): the
// same request always renders a byte-identical body, so whole rendered
// responses are perfectly cacheable, keyed by a canonical hash of the
// request semantics. The cache is a flight.Cache — the same
// singleflight, second-chance cache type the trace loader captures
// through, one level up: the trace instance deduplicates the *capture*
// stage across concurrent requests; this one deduplicates the entire
// request. The first request for a key computes while identical
// concurrent requests coalesce onto the in-flight entry, warm hits stay
// off the exclusive lock, and errors are never cached: a failed
// compute drops its entry and coalesced waiters retry under their own
// contexts. serveCached (server.go) resolves every non-streamed sweep
// through one flight.Cache.Do call.
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
//     entry keys; a shard front-end caches under it.
//   - NDJSON streaming responses bypass this cache entirely: a stream
//     is an incremental representation with client-observable pacing,
//     not a content-addressed document. Streamed runs still share the
//     trace cache below.

// sweepValue is one result-cache value: the fully rendered body (what
// goes on the wire) and, for locally computed per-config entries, the
// parsed response, so multi-config requests assemble their composite
// body from per-entry hits without re-simulating.
type sweepValue struct {
	body []byte
	resp *SweepResponse
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

// statusOf merges per-entry outcomes for a request: one computed entry
// makes the whole request a miss, otherwise one awaited entry makes it
// coalesced, otherwise everything was already resolved and the request
// is a pure hit — the maximum of the ordered flight.Outcome values.
func statusOf(outcomes []flight.Outcome) cacheStatus {
	switch slices.Max(outcomes) {
	case flight.Miss:
		return cacheMiss
	case flight.Coalesced:
		return cacheCoalesced
	}
	return cacheHit
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
