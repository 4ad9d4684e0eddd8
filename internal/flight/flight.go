// Package flight is the one singleflight cache of the simulation
// service: a bounded map from keys to values that are expensive to
// produce, where the first caller for a key produces the value while
// concurrent callers for the same key wait on that one flight. mbbpd
// runs two instances — captured traces keyed by (program, length) in
// the harness's trace loader, and rendered sweep bodies keyed by the
// canonical request key in the server — and both follow the protocol
// here:
//
//   - Probe finds an entry (completed or in flight) under the shared
//     lock only, so warm traffic never serializes on the cache;
//   - Claim finds the entry or creates an in-flight one, and reports
//     whether the caller owns the flight and must Resolve it;
//   - Wait blocks on an entry until it resolves or the caller's context
//     ends;
//   - Hit and Coalesced record how a served entry was found.
//
// Failures are never cached: a flight resolved with an error is
// dropped, and its waiters see the flight fail and claim the key again
// under their own contexts — the owner's error may be its own context
// dying, which says nothing about the waiters' requests.
//
// Eviction is second-chance (clock): a Hit marks the entry with an
// atomic flag instead of splicing an LRU list under the exclusive
// lock, and the evictor, which already holds that lock, spares marked
// entries once. In-flight entries are never evicted.
package flight

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a bounded singleflight cache of V keyed by K. The zero value
// is not usable; create one with New.
type Cache[K comparable, V any] struct {
	mu      sync.RWMutex
	cap     int
	entries map[K]*Entry[K, V]
	lru     *list.List // front = most recently inserted/spared; values are *Entry[K, V]

	hits, misses, coalesced, evictions atomic.Uint64
}

// Entry is one key's flight: in flight until its owner resolves it,
// then completed with a value (a failed flight leaves the cache).
type Entry[K comparable, V any] struct {
	key  K
	elem *list.Element

	// touched is set lock-free by Hit and consumed by the evictor: a
	// touched entry gets a second chance instead of being evicted.
	touched atomic.Bool

	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// New returns a cache holding at most capacity completed entries;
// capacity < 1 is treated as 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:     capacity,
		entries: make(map[K]*Entry[K, V]),
		lru:     list.New(),
	}
}

// Probe returns key's entry, completed or in flight, or nil. It takes
// only the shared lock.
func (c *Cache[K, V]) Probe(key K) *Entry[K, V] {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	return e
}

// Claim returns key's entry, creating an in-flight one (and counting a
// miss) if there is none. owner reports whether the caller created it
// and so must Resolve it.
func (c *Cache[K, V]) Claim(key K) (e *Entry[K, V], owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		return e, false
	}
	c.misses.Add(1)
	e = &Entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	return e, true
}

// Resolve completes a claimed flight. A nil err publishes v to every
// waiter; a non-nil err drops the entry so the next Claim starts a
// fresh flight.
func (c *Cache[K, V]) Resolve(e *Entry[K, V], v V, err error) {
	e.val, e.err = v, err
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

// Hit counts a use of an entry the caller did not claim and marks it
// recently used, so the evictor spares it once.
func (c *Cache[K, V]) Hit(e *Entry[K, V]) {
	c.hits.Add(1)
	e.touched.Store(true)
}

// Coalesced counts a served wait on another caller's flight. Unlike
// Hit it leaves the entry's recency alone.
func (c *Cache[K, V]) Coalesced() { c.coalesced.Add(1) }

// Done reports whether e has resolved, without blocking.
func (e *Entry[K, V]) Done() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Wait blocks until e resolves or ctx is done; in the latter case err
// is ctx's error. Otherwise ok reports whether the flight succeeded:
// false means its owner failed and dropped the entry, so the caller
// should Claim the key again.
func (e *Entry[K, V]) Wait(ctx context.Context) (v V, ok bool, err error) {
	select {
	case <-e.done:
		return e.val, e.err == nil, nil
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// evictLocked trims the list beyond capacity, second-chance style:
// scanning from the back, a touched completed entry is spared once
// (moved to the front, mark cleared), an untouched completed entry is
// evicted, and an in-flight entry is skipped — its owner and waiters
// hold it anyway, and evicting it would only duplicate work underway.
// Two passes bound the scan: the first clears every mark it spares, so
// the second can always make progress.
func (c *Cache[K, V]) evictLocked() {
	for pass := 0; pass < 2 && c.lru.Len() > c.cap; pass++ {
		for elem := c.lru.Back(); elem != nil && c.lru.Len() > c.cap; {
			e := elem.Value.(*Entry[K, V])
			prev := elem.Prev()
			if e.Done() {
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

// Len returns the number of cached entries, in-flight ones included.
func (c *Cache[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lru.Len()
}

// Stats is one scrape of a cache's cumulative counters.
type Stats struct {
	Hits, Misses, Coalesced, Evictions uint64
}

// Stats returns the counters. Each is an atomic, so reading them never
// touches the cache's locks: a metrics scrape cannot stall (or be
// stalled by) the request path.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
}
