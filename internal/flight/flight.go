// Package flight is the one singleflight cache of the simulation
// service: a bounded map from keys to values that are expensive to
// produce, where the first caller for a key produces the value while
// concurrent callers for the same key wait on that one flight. mbbpd
// runs two instances — captured traces keyed by (program, length) in
// the harness's trace loader, and rendered sweep bodies keyed by the
// canonical request key in the server — and both go through Do, the
// whole protocol. Do(ctx, keys, admit, fill) works in passes over the
// keys the call has not obtained yet:
//
//   - it probes every key under the shared lock only; when all are
//     present, completed or in flight, it calls neither admit nor fill,
//     so warm traffic never serializes on the cache or pays admission;
//   - otherwise it calls admit (when non-nil), claims every key — an
//     absent key becomes an in-flight entry this call owns — calls fill
//     once with the owned keys, resolves them, and calls the release
//     admit returned;
//   - it waits on every other entry with ctx. A flight that failed is
//     dropped, never cached, and its key goes to a fresh pass that
//     claims it under this call's context: the owner's error may be its
//     own context dying, which says nothing about this call. A call
//     returns only its own fill's, admit's or ctx's error. A fill that
//     panics fails its flights the same way and still releases before
//     the panic reaches Do's caller, so no key stays in flight.
//
// Each key gets one Outcome, on the pass that obtains its value: Hit
// for an entry that had completed, Coalesced for one another caller had
// in flight, Miss for one this call filled. Stats counts exactly the
// outcomes Do returns, so Hits + Coalesced + Misses is the number of
// outcomes returned and Misses the number of keys handed to fill. A
// failed call returns the outcomes it reached; a key it never obtained
// keeps the zero Outcome.
//
// Eviction is second-chance (clock): a Hit marks the entry with an
// atomic flag instead of splicing an LRU list under the exclusive
// lock, and the evictor, which already holds that lock, spares marked
// entries once. In-flight entries are never evicted.
package flight

import (
	"container/list"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// Cache is a bounded singleflight cache of V keyed by K. The zero value
// is not usable; create one with New.
type Cache[K comparable, V any] struct {
	mu      sync.RWMutex
	cap     int
	entries map[K]*entry[K, V]
	lru     *list.List // front = most recently inserted/spared; values are *entry[K, V]

	hits, misses, coalesced, evictions atomic.Uint64
}

// entry is one key's flight: in flight until its owner resolves it,
// then completed with a value (a failed flight leaves the cache).
type entry[K comparable, V any] struct {
	key  K
	elem *list.Element

	// touched is set lock-free by a Hit and consumed by the evictor: a
	// touched entry gets a second chance instead of being evicted.
	touched atomic.Bool

	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// Outcome is how one Do call obtained one key's value. The order is
// meaningful: the maximum over a call's keys is the call's overall
// outcome (one filled key makes the call a Miss).
type Outcome uint8

const (
	// Hit: the key's entry had already completed.
	Hit Outcome = iota + 1
	// Coalesced: the call waited on another caller's flight.
	Coalesced
	// Miss: the call filled the key itself.
	Miss
)

// New returns a cache holding at most capacity completed entries;
// capacity < 1 is treated as 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:     capacity,
		entries: make(map[K]*entry[K, V]),
		lru:     list.New(),
	}
}

// Do returns the value of every key, in order, with each key's Outcome,
// under the protocol above. fill gets the indexes of the keys this call
// claimed (never none) and returns their values in that order; its
// error fails all of them. admit may be nil.
func (c *Cache[K, V]) Do(ctx context.Context, keys []K, admit func() (release func(), err error),
	fill func(claimed []int) ([]V, error)) ([]V, []Outcome, error) {
	vals := make([]V, len(keys))
	outs := make([]Outcome, len(keys))
	pass := make([]Outcome, len(keys)) // this pass's outcome of each pending key
	entries := make([]*entry[K, V], len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, outs, err
		}
		absent := false
		for _, i := range pending {
			if entries[i] = c.probe(keys[i]); entries[i] == nil {
				absent = true
			}
		}
		var claimed []int
		release := func() {}
		if absent {
			if admit != nil {
				var err error
				if release, err = admit(); err != nil {
					return nil, outs, err
				}
			}
			for _, i := range pending {
				var owner bool
				if entries[i], owner = c.claim(keys[i]); owner {
					claimed = append(claimed, i)
					pass[i] = Miss
				}
			}
		}
		for _, i := range pending {
			if pass[i] != Miss {
				pass[i] = Coalesced
				if entries[i].isDone() {
					pass[i] = Hit
				}
			}
		}
		if err := c.runFill(entries, claimed, release, fill, vals, outs); err != nil {
			return nil, outs, err
		}

		if slices.Contains(pass, Coalesced) {
			if hook, _ := ctx.Value(joinHookKey{}).(func()); hook != nil {
				hook()
			}
		}
		var retry []int
		for _, i := range pending {
			if pass[i] == Miss {
				continue
			}
			select {
			case <-entries[i].done:
			case <-ctx.Done():
				return nil, outs, ctx.Err()
			}
			if entries[i].err != nil {
				retry = append(retry, i) // claim it again under this call's context
				continue
			}
			vals[i], outs[i] = entries[i].val, pass[i]
			if pass[i] == Hit {
				c.hits.Add(1)
				entries[i].touched.Store(true)
			} else {
				c.coalesced.Add(1)
			}
		}
		clear(pass)
		pending = retry
	}
	return vals, outs, nil
}

// errFillPanicked resolves the keys of a fill that panicked, so their
// waiters claim them afresh instead of waiting on a flight that never
// ends.
var errFillPanicked = errors.New("flight: fill panicked")

// runFill runs one pass's fill over the claimed keys (if any), resolves
// every claimed entry and then calls release, storing the values and
// Miss outcomes in vals and outs. If fill panics, the deferred call
// fails every claimed entry not yet resolved and still releases; the
// panic then goes on up to Do's caller.
func (c *Cache[K, V]) runFill(entries []*entry[K, V], claimed []int, release func(),
	fill func(claimed []int) ([]V, error), vals []V, outs []Outcome) error {
	done := 0 // claimed entries resolved so far
	defer func() {
		var zero V
		for _, i := range claimed[done:] {
			c.resolve(entries[i], zero, errFillPanicked)
		}
		release()
	}()
	if len(claimed) == 0 {
		return nil
	}
	vs, err := fill(claimed)
	for j, i := range claimed {
		var v V
		if err == nil {
			v = vs[j]
		}
		vals[i], outs[i] = v, Miss
		c.resolve(entries[i], v, err)
		done++
	}
	return err
}

type joinHookKey struct{}

// WithJoinHook returns a copy of ctx under which Do calls f once per
// pass that is about to wait on a flight another caller owns, after its
// own fill — the window in which that flight is still running. It is a
// test seam, in the manner of net/http/httptrace: tests use it to hold
// an owner until a coalescing caller has joined its flight.
func WithJoinHook(ctx context.Context, f func()) context.Context {
	return context.WithValue(ctx, joinHookKey{}, f)
}

// probe returns key's entry, completed or in flight, or nil. It takes
// only the shared lock.
func (c *Cache[K, V]) probe(key K) *entry[K, V] {
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	return e
}

// claim returns key's entry, creating an in-flight one (and counting a
// miss) if there is none. owner reports whether the caller created it
// and so must resolve it.
func (c *Cache[K, V]) claim(key K) (e *entry[K, V], owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil {
		return e, false
	}
	c.misses.Add(1)
	e = &entry[K, V]{key: key, done: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	return e, true
}

// resolve completes a claimed flight. A nil err publishes v to every
// waiter; a non-nil err drops the entry so the next claim starts a
// fresh flight.
func (c *Cache[K, V]) resolve(e *entry[K, V], v V, err error) {
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

// isDone reports whether e has resolved, without blocking.
func (e *entry[K, V]) isDone() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
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
			e := elem.Value.(*entry[K, V])
			prev := elem.Prev()
			if e.isDone() {
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
