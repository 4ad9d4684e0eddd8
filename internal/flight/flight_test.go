package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// val is a test value; pointer identity shows that callers share one
// produced value.
type val struct{ name string }

// get is the protocol both production callers run, for one key: probe,
// claim on a miss, fill and resolve when owning; otherwise count a hit,
// wait, and claim again if the owner failed.
func get(ctx context.Context, c *Cache[string, *val], key string, fill func() (*val, error)) (*val, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, owner := c.Probe(key), false
		if e == nil {
			e, owner = c.Claim(key)
		}
		if owner {
			v, err := fill()
			c.Resolve(e, v, err)
			return v, err
		}
		c.Hit(e)
		v, ok, err := e.Wait(ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
	}
}

func fillWith(name string) func() (*val, error) {
	return func() (*val, error) { return &val{name}, nil }
}

func TestCacheSharesCapture(t *testing.T) {
	c := New[string, *val](4)
	var fills atomic.Int64
	fill := func() (*val, error) {
		fills.Add(1)
		return &val{"compress"}, nil
	}

	const goroutines = 16
	var wg sync.WaitGroup
	got := make([]*val, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := get(context.Background(), c, "compress", fill)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			got[i] = v
		}(i)
	}
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Errorf("goroutine %d got a different value", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", st.Hits, st.Misses, goroutines-1)
	}
}

// TestCacheClaimResolve pins the claim protocol itself: one owner per
// key, later claims join the flight, and resolving publishes the value.
func TestCacheClaimResolve(t *testing.T) {
	c := New[string, *val](8)
	e, owner := c.Claim("k")
	if !owner {
		t.Fatal("first claim not owner")
	}
	if e2, owner2 := c.Claim("k"); owner2 || e2 != e {
		t.Fatal("second claim did not join the flight")
	}
	if c.Probe("k") != e {
		t.Error("probe does not see the in-flight entry")
	}
	if e.Done() {
		t.Error("in-flight entry reports done")
	}
	want := &val{"body"}
	c.Resolve(e, want, nil)
	if !e.Done() {
		t.Error("resolved entry not done")
	}
	if v, ok, err := e.Wait(context.Background()); v != want || !ok || err != nil {
		t.Errorf("wait after resolve = %v, %v, %v", v, ok, err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestCacheLRUEviction: completed entries beyond capacity are evicted
// second-chance style — a recently hit entry is spared first — and an
// in-flight entry is never evicted.
func TestCacheLRUEviction(t *testing.T) {
	if c := New[string, *val](0); c.cap != 1 {
		t.Errorf("non-positive capacity clamps to 1, got %d", c.cap)
	}
	c := New[string, *val](2)
	ctx := context.Background()
	for _, k := range []string{"a", "b", "a", "c"} { // the second a is a hit; c evicts b
		if _, err := get(ctx, c, k, fillWith(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, err := get(ctx, c, "a", func() (*val, error) {
		t.Error("a was evicted; want cache hit")
		return &val{"a"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	var refilled bool
	if _, err := get(ctx, c, "b", func() (*val, error) {
		refilled = true
		return &val{"b"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !refilled {
		t.Error("evicted entry b served from cache; want a fresh fill")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (b, then c)", st.Evictions)
	}

	// An in-flight entry is immune even under capacity pressure.
	inflight, _ := c.Claim("d")
	for _, k := range []string{"e", "f"} {
		e, _ := c.Claim(k)
		c.Resolve(e, &val{k}, nil)
	}
	if c.Probe("d") != inflight {
		t.Error("in-flight entry evicted")
	}
	c.Resolve(inflight, &val{"d"}, nil)
	if c.Len() > 3 {
		t.Errorf("len = %d after resolutions, want <= 3", c.Len())
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := New[string, *val](2)
	boom := errors.New("boom")
	if _, err := get(context.Background(), c, "bad", func() (*val, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Probe("bad") != nil {
		t.Error("failed flight still cached")
	}
	var retried bool
	if _, err := get(context.Background(), c, "bad", func() (*val, error) {
		retried = true
		return &val{"bad"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !retried {
		t.Error("failed fill was cached; want retry")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (failed flight, then retry)", st.Misses)
	}
}

// TestCacheGetContextCancelled: a dead context neither starts nor joins
// a flight, and a wait returns when the caller's context dies, without
// waiting out the flight.
func TestCacheGetContextCancelled(t *testing.T) {
	c := New[string, *val](2)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		get(context.Background(), c, "slow", func() (*val, error) {
			close(started)
			<-release
			return &val{"slow"}, nil
		})
	}()
	<-started
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := get(ctx, c, "slow", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("get err = %v, want context.Canceled", err)
	}
	if _, ok, err := c.Probe("slow").Wait(ctx); ok || !errors.Is(err, context.Canceled) {
		t.Errorf("wait on dead context = %v, %v, want Canceled", ok, err)
	}
}

// TestCacheWaiterNotPoisonedByCancelledCapture is the regression test
// for a singleflight bug: a waiter that joined an in-flight fill used
// to inherit the owner's error verbatim, so one request's mid-flight
// context cancellation failed every rider even though their own
// contexts were live. The waiter must instead see the flight fail and
// fill again under its own context.
func TestCacheWaiterNotPoisonedByCancelledCapture(t *testing.T) {
	c := New[string, *val](2)
	started := make(chan struct{})
	release := make(chan struct{})

	// Owner whose request is cancelled mid-flight.
	ownerErr := make(chan error, 1)
	go func() {
		_, err := get(context.Background(), c, "shared", func() (*val, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		ownerErr <- err
	}()
	<-started

	// Waiter with a live context rides the same flight.
	waiterErr := make(chan error, 1)
	var retried atomic.Bool
	var got *val
	go func() {
		v, err := get(context.Background(), c, "shared", func() (*val, error) {
			retried.Store(true)
			return &val{"shared"}, nil
		})
		got = v
		waiterErr <- err
	}()
	// Only fail the flight once the waiter has actually joined it (its
	// join counts as a hit); otherwise it would refill trivially.
	for c.Stats().Hits < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("owner err = %v, want context.Canceled", err)
	}
	if err := <-waiterErr; err != nil {
		t.Errorf("waiter err = %v, want nil (retry, not the owner's cancellation)", err)
	}
	if !retried.Load() {
		t.Error("waiter never retried the fill")
	}
	if got == nil || got.name != "shared" {
		t.Errorf("waiter value = %+v, want the retried fill", got)
	}
	if c.Len() != 1 {
		t.Errorf("cache len = %d, want 1 (the retried entry)", c.Len())
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := New[string, *val](3)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("p%d", i%5)
			v, err := get(context.Background(), c, name, fillWith(name))
			if err != nil {
				t.Errorf("get(%s): %v", name, err)
				return
			}
			if v.name != name {
				t.Errorf("get(%s) = value %q", name, v.name)
			}
		}(i)
	}
	wg.Wait()
}

// TestCacheWarmHitsDoNotTakeWriteLock is the contention regression
// test for the warm-hit path: a hot sweep workload is nearly 100%
// warm hits, and before the RWMutex + second-chance design every hit
// serialized on one exclusive sync.Mutex (the LRU splice). The test
// holds the cache's read lock for its whole duration — if any warm
// hit tried to acquire the exclusive lock it would block forever (a
// writer cannot be granted while a reader holds the lock), so mere
// completion under the deadline proves hits stay on the shared path.
// Eight goroutines hit concurrently; the lock-free hit counter must
// account for every one exactly.
func TestCacheWarmHitsDoNotTakeWriteLock(t *testing.T) {
	c := New[string, *val](4)
	if _, err := get(context.Background(), c, "hot", fillWith("hot")); err != nil {
		t.Fatal(err)
	}

	// Simulate a concurrent reader pinning the shared lock. RLock is
	// reentrant across goroutines, so warm hits proceed; an exclusive
	// Lock would wedge behind this holder.
	c.mu.RLock()
	defer c.mu.RUnlock()

	const goroutines = 8
	const hitsEach = 1000
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < hitsEach; i++ {
				v, err := get(context.Background(), c, "hot", func() (*val, error) {
					return nil, fmt.Errorf("warm hit ran the fill")
				})
				if err != nil {
					done <- err
					return
				}
				if v.name != "hot" {
					done <- fmt.Errorf("hit returned value %q", v.name)
					return
				}
			}
			done <- nil
		}()
	}
	deadline := time.After(10 * time.Second)
	for g := 0; g < goroutines; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("warm hits wedged while a read lock was held: the hit path is taking the exclusive lock")
		}
	}

	if st := c.Stats(); st.Hits != goroutines*hitsEach || st.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", st.Hits, st.Misses, goroutines*hitsEach)
	}
}

// TestCacheStatsLockFree: Stats must be readable while the exclusive
// lock is held — the metrics scrape cannot stall behind the request
// path.
func TestCacheStatsLockFree(t *testing.T) {
	c := New[string, *val](2)
	if _, err := get(context.Background(), c, "x", fillWith("x")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	read := make(chan struct{})
	go func() {
		c.Stats()
		close(read)
	}()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("Stats blocked behind the exclusive lock")
	}
}
