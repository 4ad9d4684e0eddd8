package trace

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is an LRU cache of captured traces keyed by (program, length),
// built for the simulation service: many concurrent sweep requests over
// the same workload set should capture each trace once and share the
// buffer. Capture is deduplicated singleflight-style — the first
// request for a key runs the capture while later requests block on the
// same in-flight entry — and completed entries are evicted
// least-recently-used beyond the capacity.
//
// The warm-hit path is deliberately read-lock only: a hit takes
// c.mu.RLock for the map probe, bumps an atomic hit counter, and marks
// the entry referenced with an atomic flag — it never acquires the
// exclusive lock. Recency is folded back in second-chance (clock)
// style at eviction time: the evictor, which already holds the write
// lock, spares referenced entries once and clears their mark instead
// of the hit path doing an LRU list splice under a mutex. Before this,
// every warm hit serialized the whole service on one sync.Mutex — the
// dominant contention point multi-worker scaling runs exposed, since
// a hot sweep workload is nearly 100% warm hits.
//
// Cached buffers are shared; callers must Clone before reading so each
// consumer gets its own cursor (records are immutable after capture).
type Cache struct {
	mu      sync.RWMutex
	cap     int
	entries map[CacheKey]*cacheEntry
	lru     *list.List // front = most recently inserted/spared; values are *cacheEntry

	hits, misses atomic.Uint64
}

// CacheKey identifies one captured trace.
type CacheKey struct {
	Program string
	N       uint64
}

type cacheEntry struct {
	key  CacheKey
	elem *list.Element

	// touched is set lock-free by every warm hit and consumed by the
	// evictor: a touched entry gets a second chance (moved to the
	// front, mark cleared) instead of being evicted.
	touched atomic.Bool

	done chan struct{} // closed when buf/err are set
	buf  *Buffer
	err  error
}

// NewCache returns a cache holding at most capacity completed traces;
// capacity < 1 is treated as 1.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[CacheKey]*cacheEntry),
		lru:     list.New(),
	}
}

// Get returns the trace for key, running capture to produce it on a
// miss. Concurrent Gets for the same key share one capture. A capture
// error is never cached: the failing entry is dropped, the capturer
// gets the error, and waiters that shared the flight retry with a
// fresh capture instead of inheriting it — the capturer's failure may
// be its own context being cancelled, which says nothing about the
// waiters' requests. Get returns early with ctx's error if ctx is done
// before the shared capture completes (the capture itself keeps
// running for the requests still waiting on it).
//
// The returned buffer is shared: Clone it before reading.
func (c *Cache) Get(ctx context.Context, key CacheKey, capture func() (*Buffer, error)) (*Buffer, error) {
	for {
		// A dead context never starts or joins a capture — without this
		// a cancelled request could still burn a full trace capture on a
		// miss.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Warm path: shared lock only. Concurrent hits proceed in
		// parallel; recency is recorded via the entry's atomic mark.
		c.mu.RLock()
		e := c.entries[key]
		c.mu.RUnlock()
		if e == nil {
			// Cold path: take the exclusive lock and re-probe — another
			// goroutine may have inserted the entry between the two
			// locks, in which case this Get is a hit after all.
			c.mu.Lock()
			if e = c.entries[key]; e == nil {
				c.misses.Add(1)
				e = &cacheEntry{key: key, done: make(chan struct{})}
				e.elem = c.lru.PushFront(e)
				c.entries[key] = e
				c.evictLocked()
				c.mu.Unlock()

				e.buf, e.err = capture()
				if e.err != nil {
					// Do not cache failures: drop the entry (if still
					// present) so a later Get retries the capture.
					c.mu.Lock()
					if c.entries[key] == e {
						delete(c.entries, key)
						c.lru.Remove(e.elem)
					}
					c.mu.Unlock()
				}
				close(e.done)
				return e.buf, e.err
			}
			c.mu.Unlock()
		}
		c.hits.Add(1)
		e.touched.Store(true)
		select {
		case <-e.done:
			if e.err != nil {
				// The capturer failed and dropped the entry. Its error
				// belongs to its request (a mid-flight cancellation
				// poisons only that flight), so go around and recapture
				// under our own context.
				continue
			}
			return e.buf, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// evictLocked trims the list beyond capacity, second-chance style:
// scanning from the back, a touched entry is spared once (moved to the
// front, mark cleared) and an untouched completed entry is evicted.
// In-flight entries are skipped — their capturer and waiters hold them
// anyway, and evicting them would only duplicate work already
// underway. Two passes bound the scan: the first clears every mark it
// spares, so the second can always make progress.
func (c *Cache) evictLocked() {
	for pass := 0; pass < 2 && c.lru.Len() > c.cap; pass++ {
		for elem := c.lru.Back(); elem != nil && c.lru.Len() > c.cap; {
			e := elem.Value.(*cacheEntry)
			prev := elem.Prev()
			select {
			case <-e.done:
				if e.touched.Swap(false) {
					c.lru.MoveToFront(elem)
				} else {
					delete(c.entries, e.key)
					c.lru.Remove(elem)
				}
			default:
				// still capturing; leave it
			}
			elem = prev
		}
	}
}

// Len returns the number of cached (including in-flight) entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lru.Len()
}

// Stats returns the cumulative hit and miss counts. Both counters are
// atomics — reading them never touches the cache's locks, so a metrics
// scrape cannot stall (or be stalled by) the request path.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
