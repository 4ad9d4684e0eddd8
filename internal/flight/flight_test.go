package flight

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// val is a test value; pointer identity shows that callers share one
// produced value.
type val struct{ name string }

// fillNames fills each claimed key with a value named after it.
func fillNames(keys []string) func([]int) ([]*val, error) {
	return func(claimed []int) ([]*val, error) {
		out := make([]*val, len(claimed))
		for j, i := range claimed {
			out[j] = &val{keys[i]}
		}
		return out, nil
	}
}

// do1 is Do on one key.
func do1(ctx context.Context, c *Cache[string, *val], key string, fill func([]int) ([]*val, error)) (*val, Outcome, error) {
	vals, outs, err := c.Do(ctx, []string{key}, nil, fill)
	if err != nil {
		return nil, outs[0], err
	}
	return vals[0], outs[0], nil
}

// hold starts a Do that claims key and parks in its fill until release
// is called; the fill then returns v and err. hold returns once the
// flight is claimed; done yields the parked call's error.
func hold(c *Cache[string, *val], key string, v *val, err error) (release func(), done <-chan error) {
	started, unpark := make(chan struct{}), make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, _, e := c.Do(context.Background(), []string{key}, nil, func([]int) ([]*val, error) {
			close(started)
			<-unpark
			return []*val{v}, err
		})
		out <- e
	}()
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(unpark) }) }, out
}

func TestCacheSharesCapture(t *testing.T) {
	c := New[string, *val](4)
	var fills atomic.Int64
	fill := func([]int) ([]*val, error) {
		fills.Add(1)
		return []*val{{"compress"}}, nil
	}

	const goroutines = 16
	var wg sync.WaitGroup
	got := make([]*val, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := do1(context.Background(), c, "compress", fill)
			if err != nil {
				t.Errorf("Do: %v", err)
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
	if st := c.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != goroutines-1 {
		t.Errorf("stats = %d hits + %d coalesced / %d misses, want %d / 1",
			st.Hits, st.Coalesced, st.Misses, goroutines-1)
	}
}

// TestCacheClaimResolve pins the claim protocol under Do: one owner per
// key, later claims join the flight, and resolving publishes the value.
func TestCacheClaimResolve(t *testing.T) {
	c := New[string, *val](8)
	e, owner := c.claim("k")
	if !owner {
		t.Fatal("first claim not owner")
	}
	if e2, owner2 := c.claim("k"); owner2 || e2 != e {
		t.Fatal("second claim did not join the flight")
	}
	if c.probe("k") != e {
		t.Error("probe does not see the in-flight entry")
	}
	if e.isDone() {
		t.Error("in-flight entry reports done")
	}
	want := &val{"body"}
	c.resolve(e, want, nil)
	if !e.isDone() {
		t.Error("resolved entry not done")
	}
	if e.val != want || e.err != nil {
		t.Errorf("resolved entry = %v, %v, want the published value", e.val, e.err)
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
		if _, _, err := do1(ctx, c, k, fillNames([]string{k})); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, out, err := do1(ctx, c, "a", func([]int) ([]*val, error) {
		t.Error("a was evicted; want cache hit")
		return []*val{{"a"}}, nil
	}); err != nil || out != Hit {
		t.Fatalf("a = %v, %v; want a hit", out, err)
	}
	if _, out, err := do1(ctx, c, "b", fillNames([]string{"b"})); err != nil || out != Miss {
		t.Errorf("evicted entry b = %v, %v; want a fresh fill", out, err)
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (b, then c)", st.Evictions)
	}

	// An in-flight entry is immune even under capacity pressure.
	inflight, _ := c.claim("d")
	for _, k := range []string{"e", "f"} {
		e, _ := c.claim(k)
		c.resolve(e, &val{k}, nil)
	}
	if c.probe("d") != inflight {
		t.Error("in-flight entry evicted")
	}
	c.resolve(inflight, &val{"d"}, nil)
	if c.Len() > 3 {
		t.Errorf("len = %d after resolutions, want <= 3", c.Len())
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := New[string, *val](2)
	boom := errors.New("boom")
	if _, out, err := do1(context.Background(), c, "bad", func([]int) ([]*val, error) {
		return nil, boom
	}); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("err = %v, outcome %v; want boom, Miss", err, out)
	}
	if c.probe("bad") != nil {
		t.Error("failed flight still cached")
	}
	var retried bool
	if _, _, err := do1(context.Background(), c, "bad", func([]int) ([]*val, error) {
		retried = true
		return []*val{{"bad"}}, nil
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
	release, _ := hold(c, "slow", &val{"slow"}, nil)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, out, err := do1(ctx, c, "slow", nil); !errors.Is(err, context.Canceled) || out != 0 {
		t.Errorf("Do = %v, %v, want context.Canceled and no outcome", out, err)
	}

	// A live context that dies while waiting on the flight.
	ctx, cancel = context.WithCancel(context.Background())
	if _, out, err := do1(WithJoinHook(ctx, cancel), c, "slow", nil); !errors.Is(err, context.Canceled) || out != 0 {
		t.Errorf("Do cancelled mid-wait = %v, %v, want context.Canceled and no outcome", out, err)
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
	// Owner whose request is cancelled mid-flight.
	release, ownerErr := hold(c, "shared", nil, context.Canceled)

	// Waiter with a live context rides the same flight; the owner fails
	// only once the waiter has joined, or it would refill trivially.
	var retried bool
	got, out, err := do1(WithJoinHook(context.Background(), release), c, "shared", func([]int) ([]*val, error) {
		retried = true
		return []*val{{"shared"}}, nil
	})

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("owner err = %v, want context.Canceled", err)
	}
	if err != nil {
		t.Errorf("waiter err = %v, want nil (retry, not the owner's cancellation)", err)
	}
	if !retried || out != Miss {
		t.Errorf("waiter retried = %v with outcome %v, want a retried fill (Miss)", retried, out)
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
			v, _, err := do1(context.Background(), c, name, fillNames([]string{name}))
			if err != nil {
				t.Errorf("Do(%s): %v", name, err)
				return
			}
			if v.name != name {
				t.Errorf("Do(%s) = value %q", name, v.name)
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
	if _, _, err := do1(context.Background(), c, "hot", fillNames([]string{"hot"})); err != nil {
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
				v, _, err := do1(context.Background(), c, "hot", func([]int) ([]*val, error) {
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
	if _, _, err := do1(context.Background(), c, "x", fillNames([]string{"x"})); err != nil {
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

// TestDoClaimsOnlyAbsent: with one key in flight under another caller
// and the rest absent, Do admits, claims and fills only the absent
// keys, then waits out the in-flight one.
func TestDoClaimsOnlyAbsent(t *testing.T) {
	c := New[string, *val](8)
	owned := &val{"a"}
	release, ownerErr := hold(c, "a", owned, nil)
	defer release()

	keys := []string{"a", "b", "c"}
	var admits int
	var claimed []int
	admit := func() (func(), error) { admits++; return func() {}, nil }
	vals, outs, err := c.Do(WithJoinHook(context.Background(), release), keys, admit,
		func(cl []int) ([]*val, error) {
			claimed = slices.Clone(cl)
			return fillNames(keys)(cl)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ownerErr; err != nil {
		t.Fatal(err)
	}
	if admits != 1 || !slices.Equal(claimed, []int{1, 2}) {
		t.Errorf("admits = %d, claimed = %v; want 1 admit claiming [1 2]", admits, claimed)
	}
	if want := []Outcome{Coalesced, Miss, Miss}; !slices.Equal(outs, want) {
		t.Errorf("outcomes = %v, want %v", outs, want)
	}
	if vals[0] != owned || vals[1].name != "b" || vals[2].name != "c" {
		t.Errorf("values = %v, want the owner's a, then b and c", vals)
	}
	if st := c.Stats(); st.Misses != 3 || st.Coalesced != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses (owner's a, b, c) and 1 coalesced", st)
	}
}

// TestDoAllPresentSkipsAdmit: when every key is present — completed or
// in flight — Do never calls admit or fill; it serves the completed
// keys as hits and waits on the in-flight ones.
func TestDoAllPresentSkipsAdmit(t *testing.T) {
	c := New[string, *val](8)
	if _, _, err := do1(context.Background(), c, "done", fillNames([]string{"done"})); err != nil {
		t.Fatal(err)
	}
	release, _ := hold(c, "running", &val{"running"}, nil)
	defer release()

	admit := func() (func(), error) {
		t.Error("admit called with every key present")
		return func() {}, nil
	}
	fill := func([]int) ([]*val, error) {
		t.Error("fill called with every key present")
		return nil, errors.New("unexpected fill")
	}
	vals, outs, err := c.Do(WithJoinHook(context.Background(), release), []string{"done", "running"}, admit, fill)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Outcome{Hit, Coalesced}; !slices.Equal(outs, want) {
		t.Errorf("outcomes = %v, want %v", outs, want)
	}
	if vals[0].name != "done" || vals[1].name != "running" {
		t.Errorf("values = %v", vals)
	}
}

// TestDoAdmitError: a refused admission ends the call with admit's
// error, claims nothing, and leaves no outcome behind.
func TestDoAdmitError(t *testing.T) {
	c := New[string, *val](4)
	full := errors.New("queue full")
	_, outs, err := c.Do(context.Background(), []string{"x"},
		func() (func(), error) { return nil, full }, fillNames([]string{"x"}))
	if !errors.Is(err, full) || outs[0] != 0 {
		t.Errorf("Do = %v, %v; want the admit error and no outcome", outs, err)
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Errorf("refused call touched the cache: len %d, %+v", c.Len(), c.Stats())
	}
}

// TestDoFillPanicResolves: a fill that panics fails every key it
// claimed and releases its admission before the panic reaches the
// caller, so the keys are not left in flight: a later Do on one of them
// claims it afresh within its deadline instead of waiting on a flight
// that never ends.
func TestDoFillPanicResolves(t *testing.T) {
	c := New[string, *val](4)
	keys := []string{"a", "b"}
	var releases int
	admit := func() (func(), error) { return func() { releases++ }, nil }
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the fill's panic", r)
			}
		}()
		c.Do(context.Background(), keys, admit, func([]int) ([]*val, error) { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Errorf("Len = %d after a panicking fill, want 0", c.Len())
	}
	if releases != 1 {
		t.Errorf("release ran %d times, want 1", releases)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	v, out, err := do1(ctx, c, "a", fillNames(keys[:1]))
	if err != nil || out != Miss || v.name != "a" {
		t.Errorf("Do after the panic = %v, %v, %v; want a fresh Miss", v, out, err)
	}
}

// TestDoConcurrentProperty drives Do from many goroutines over random
// key subsets, with fills that fail at random and contexts that are
// cancelled at random (before the call, mid-wait, or inside the call's
// own fill), and checks the contract:
//
//   - at most one flight per key runs at a time;
//   - a call only ever returns its own fill's error or its own
//     context's error, never another caller's;
//   - every value a call returns is the one filled for its key;
//   - Misses equals the number of keys handed to fill;
//   - Hits + Coalesced + Misses equals the number of outcomes returned.
//
// Run it under -race.
func TestDoConcurrentProperty(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	c := New[string, *val](4) // smaller than the key space, so eviction runs too
	active := make(map[string]*atomic.Int32, len(keys))
	for _, k := range keys {
		active[k] = new(atomic.Int32)
	}
	var filled, outcomes atomic.Uint64

	const goroutines, calls = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < calls; n++ {
				var ks []string
				for _, i := range rng.Perm(len(keys))[:1+rng.Intn(3)] {
					ks = append(ks, keys[i])
				}
				ctx, cancel := context.WithCancel(context.Background())
				mode := rng.Intn(8)
				if mode == 0 {
					cancel()
				}
				if mode == 1 {
					ctx = WithJoinHook(ctx, cancel)
				}
				own := fmt.Errorf("fill error of goroutine %d call %d", seed, n)
				fail := rng.Intn(4) == 0
				pause := time.Duration(rng.Intn(200)) * time.Microsecond
				fill := func(claimed []int) ([]*val, error) {
					filled.Add(uint64(len(claimed)))
					for _, i := range claimed {
						if active[ks[i]].Add(1) != 1 {
							t.Errorf("two flights of %s at once", ks[i])
						}
					}
					time.Sleep(pause)
					if mode == 2 {
						cancel() // this call's own request dies mid-fill
					}
					for _, i := range claimed {
						active[ks[i]].Add(-1)
					}
					switch {
					case mode == 2:
						return nil, ctx.Err()
					case fail:
						return nil, own
					}
					return fillNames(ks)(claimed)
				}
				vals, outs, err := c.Do(ctx, ks, nil, fill)
				cancel()
				for _, o := range outs {
					if o != 0 {
						outcomes.Add(1)
					}
				}
				switch {
				case err == nil:
					for i, v := range vals {
						if v == nil || v.name != ks[i] {
							t.Errorf("key %s served %+v", ks[i], v)
						}
					}
				case errors.Is(err, own) || errors.Is(err, context.Canceled) && mode <= 2:
				default:
					t.Errorf("call (mode %d, fail %v) returned %v: not its own error", mode, fail, err)
				}
			}
		}(int64(g))
	}
	wg.Wait()

	st := c.Stats()
	if st.Misses != filled.Load() {
		t.Errorf("misses = %d, want %d (keys handed to fill)", st.Misses, filled.Load())
	}
	if got := st.Hits + st.Coalesced + st.Misses; got != outcomes.Load() {
		t.Errorf("hits+coalesced+misses = %d+%d+%d = %d, want %d outcomes returned",
			st.Hits, st.Coalesced, st.Misses, got, outcomes.Load())
	}
	t.Logf("stats = %+v over %d outcomes", st, outcomes.Load())
	if st.Hits == 0 || st.Coalesced == 0 {
		t.Errorf("stats = %+v: the run never exercised both join outcomes", st)
	}
}
