package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/harness"
)

func mustKey(t *testing.T, cfg core.Config, o harness.Options) string {
	t.Helper()
	k, err := canonicalSweepKey(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCanonicalSweepKeyDifferential is the key-identity table: requests
// that must share a cache entry (and ETag) versus requests that must
// not. The rule is exact: two requests share a key iff their validated
// configs are equal as structs and their resolved options match —
// because the response body echoes the parsed config, any config
// difference that survives validation is a body difference.
func TestCanonicalSweepKeyDifferential(t *testing.T) {
	base := harness.Options{Instructions: 10_000, Programs: []string{"li", "go"}}
	def := core.DefaultConfig()
	hist := def
	hist.HistoryBits = 6

	t.Run("equal config equal options share a key", func(t *testing.T) {
		if a, b := mustKey(t, def, base), mustKey(t, core.DefaultConfig(), base); a != b {
			t.Errorf("identical requests keyed apart: %s vs %s", a, b)
		}
	})
	t.Run("config differences split the key", func(t *testing.T) {
		if a, b := mustKey(t, def, base), mustKey(t, hist, base); a == b {
			t.Error("different configs share a key")
		}
	})
	t.Run("instruction count splits the key", func(t *testing.T) {
		o := base
		o.Instructions = 20_000
		if a, b := mustKey(t, def, base), mustKey(t, def, o); a == b {
			t.Error("different instruction counts share a key")
		}
	})
	t.Run("warmup splits the key", func(t *testing.T) {
		o := base
		o.Warmup = true
		if a, b := mustKey(t, def, base), mustKey(t, def, o); a == b {
			t.Error("warmup and no-warmup share a key")
		}
	})
	t.Run("program set splits the key", func(t *testing.T) {
		o := base
		o.Programs = []string{"li"}
		if a, b := mustKey(t, def, base), mustKey(t, def, o); a == b {
			t.Error("different program sets share a key")
		}
	})
	t.Run("program order splits the key", func(t *testing.T) {
		// Results arrays follow request order, so order is content.
		o := base
		o.Programs = []string{"go", "li"}
		if a, b := mustKey(t, def, base), mustKey(t, def, o); a == b {
			t.Error("reordered programs share a key")
		}
	})
	t.Run("invalid config has no key", func(t *testing.T) {
		bad := def
		bad.HistoryBits = -1
		if _, err := canonicalSweepKey(bad, base); err == nil {
			t.Error("invalid config produced a key")
		}
	})
	t.Run("multi key differs from its entry key", func(t *testing.T) {
		k := mustKey(t, def, base)
		if multiSweepKey([]string{k}) == k {
			t.Error("one-entry multi request shares the single request's key (different body schema)")
		}
	})
	t.Run("multi key is order sensitive", func(t *testing.T) {
		a, b := mustKey(t, def, base), mustKey(t, hist, base)
		if multiSweepKey([]string{a, b}) == multiSweepKey([]string{b, a}) {
			t.Error("reordered configs share a multi key")
		}
	})
}

// TestSweepKeysJSONSpellings pins normalization at the request level:
// every JSON spelling of the same validated config — reordered fields,
// defaults omitted versus written out, the programs list omitted versus
// the full suite spelled out — produces the same key, hence the same
// ETag and cache entry.
func TestSweepKeysJSONSpellings(t *testing.T) {
	keyOf := func(t *testing.T, body string) string {
		t.Helper()
		var req SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		call, err := req.parseAll(10_000_000, false)
		if err != nil {
			t.Fatal(err)
		}
		_, reqKey, err := sweepKeys(call.cfgs, call.opts, call.multi)
		if err != nil {
			t.Fatal(err)
		}
		return reqKey
	}

	base := keyOf(t, `{"config":{"HistoryBits":10},"programs":["li"],"instructions":5000}`)
	for name, body := range map[string]string{
		"field order":      `{"programs":["li"],"instructions":5000,"config":{"HistoryBits":10}}`,
		"explicit default": `{"config":{"HistoryBits":10,"NumPHTs":1},"programs":["li"],"instructions":5000}`,
		"omitted config":   `{"programs":["li"],"instructions":5000}`,
	} {
		if got := keyOf(t, body); got != base {
			t.Errorf("%s: key %s != base %s", name, got, base)
		}
	}
	for name, body := range map[string]string{
		"different history": `{"config":{"HistoryBits":6},"programs":["li"],"instructions":5000}`,
		"different n":       `{"config":{"HistoryBits":10},"programs":["li"],"instructions":6000}`,
		"warmup":            `{"config":{"HistoryBits":10},"programs":["li"],"instructions":5000,"warmup":true}`,
	} {
		if got := keyOf(t, body); got == base {
			t.Errorf("%s: key unexpectedly equals base", name)
		}
	}
}

// TestEtagMatches covers the If-None-Match comparison forms.
func TestEtagMatches(t *testing.T) {
	etag := `"abc123"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"*", true},
		{`"abc123"`, true},
		{`W/"abc123"`, true},
		{`"zzz", "abc123"`, true},
		{`"zzz"`, false},
		{`abc123`, false}, // unquoted is not a valid entity tag
	} {
		if got := etagMatches(tc.header, etag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// FuzzResultCacheKey fuzzes the canonical-key derivation against its
// contract: for any two config JSON documents that both validate, the
// keys are equal iff the validated configs are equal as structs —
// i.e. the key conflates exactly the spellings whose response bodies
// (which echo the parsed config) coincide, never more, never less.
func FuzzResultCacheKey(f *testing.F) {
	f.Add([]byte(`{}`), []byte(`{"HistoryBits":10}`), uint64(5000), false)
	f.Add([]byte(`{"HistoryBits":6}`), []byte(`{"HistoryBits":10}`), uint64(5000), false)
	f.Add([]byte(`{"NumPHTs":1,"HistoryBits":10}`), []byte(`{}`), uint64(1000), true)
	f.Add([]byte(`{"NumBlocks":2}`), []byte(`{}`), uint64(2000), false)
	f.Add([]byte(`{"NumSTs":4}`), []byte(`{"NumSTs":4,"RASSize":32}`), uint64(3000), false)
	f.Add([]byte(`{"Mode":0,"NumBlocks":1}`), []byte(`{"Mode":0}`), uint64(4000), true)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, n uint64, warmup bool) {
		cfgA, errA := core.LoadConfigJSON(bytes.NewReader(rawA))
		cfgB, errB := core.LoadConfigJSON(bytes.NewReader(rawB))
		if errA != nil || errB != nil {
			t.Skip()
		}
		o := harness.Options{
			Instructions: n%1_000_000 + 1,
			Warmup:       warmup,
			Programs:     []string{"li"},
		}
		keyA, err := canonicalSweepKey(cfgA, o)
		if err != nil {
			t.Fatalf("validated config rejected by key derivation: %v", err)
		}
		keyB, err := canonicalSweepKey(cfgB, o)
		if err != nil {
			t.Fatalf("validated config rejected by key derivation: %v", err)
		}
		if equal := reflect.DeepEqual(cfgA, cfgB); equal != (keyA == keyB) {
			t.Errorf("config equality %v but key equality %v\nA: %s\nB: %s",
				equal, keyA == keyB, rawA, rawB)
		}
		// Determinism: re-deriving never changes the key.
		if again, _ := canonicalSweepKey(cfgA, o); again != keyA {
			t.Errorf("key not deterministic: %s vs %s", keyA, again)
		}
	})
}

// bodyFill fills every claimed result-cache entry with body.
func bodyFill(body string) func([]int) ([]sweepValue, error) {
	return func(claimed []int) ([]sweepValue, error) {
		out := make([]sweepValue, len(claimed))
		for j := range out {
			out[j] = sweepValue{body: []byte(body)}
		}
		return out, nil
	}
}

// holdResult starts a Do that claims key and parks in its fill until
// release is called, then fills it with body; it returns once the
// flight is claimed, and done closes when the parked call returns.
func holdResult(c *flight.Cache[string, sweepValue], key, body string) (release func(), done <-chan struct{}) {
	started, unpark, out := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(out)
		c.Do(context.Background(), []string{key}, nil, func(cl []int) ([]sweepValue, error) {
			close(started)
			<-unpark
			return bodyFill(body)(cl)
		})
	}()
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(unpark) }) }, out
}

// TestResultCacheSingleflight pins the claim/coalesce contract on the
// server's result-cache instance: one claimer per key, waiters see the
// resolved body, and a failed flight drops its entry so the next call
// recomputes.
func TestResultCacheSingleflight(t *testing.T) {
	c := newTestServer(t, Config{}).results
	release, done := holdResult(c, "k", "body")
	vals, outs, err := c.Do(flight.WithJoinHook(context.Background(), release), []string{"k"}, nil,
		func([]int) ([]sweepValue, error) {
			t.Error("second call claimed the key instead of coalescing onto the flight")
			return nil, errors.New("second fill")
		})
	<-done
	if err != nil || outs[0] != flight.Coalesced || string(vals[0].body) != "body" {
		t.Errorf("coalesced call = %v, %v, %v; want the owner's body", vals, outs, err)
	}

	// Failure path: entry dropped, key refills fresh.
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), []string{"fail"}, nil, func([]int) ([]sweepValue, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Errorf("failed fill = %v, want boom", err)
	}
	if _, outs, err := c.Do(context.Background(), []string{"fail"}, nil, bodyFill("b")); err != nil || outs[0] != flight.Miss {
		t.Errorf("failed flight not dropped; next call = %v, %v, want a fresh fill", outs, err)
	}
	if got := c.Stats().Misses; got != 3 {
		t.Errorf("misses = %d, want 3 (k, fail, fail-again)", got)
	}
}

// TestResultCacheAwaitContext: a wait on the server's result cache
// returns when the caller's context dies, without waiting out the
// flight.
func TestResultCacheAwaitContext(t *testing.T) {
	c := newTestServer(t, Config{}).results
	release, _ := holdResult(c, "slow", "b")
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	if _, _, err := c.Do(flight.WithJoinHook(ctx, cancel), []string{"slow"}, nil, bodyFill("b")); !errors.Is(err, context.Canceled) {
		t.Errorf("wait on dead context = %v, want Canceled", err)
	}
}

// TestResultCacheEviction: the server's result cache holds
// Config.ResultCacheEntries completed bodies; beyond that it evicts
// second-chance style — recently hit entries are spared first — and
// never evicts an in-flight entry.
func TestResultCacheEviction(t *testing.T) {
	c := newTestServer(t, Config{ResultCacheEntries: 2}).results
	ctx := context.Background()
	noFill := func([]int) ([]sweepValue, error) {
		t.Error("a cached entry was filled again")
		return nil, errors.New("unexpected fill")
	}
	if _, _, err := c.Do(ctx, []string{"k0", "k1"}, nil, bodyFill("b")); err != nil {
		t.Fatal(err)
	}
	// Mark k1 hot, as a handler hit does.
	if _, outs, _ := c.Do(ctx, []string{"k1"}, nil, noFill); outs[0] != flight.Hit {
		t.Fatalf("k1 outcome = %v, want a hit", outs[0])
	}

	release, done := holdResult(c, "k2", "b") // over capacity; k0 (cold) should go
	defer release()
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if _, outs, _ := c.Do(ctx, []string{"k1"}, nil, noFill); outs[0] != flight.Hit {
		t.Error("hot entry k1 was evicted despite its second chance")
	}

	// An in-flight entry is immune even at capacity pressure.
	if _, _, err := c.Do(ctx, []string{"k3"}, nil, bodyFill("b")); err != nil {
		t.Fatal(err)
	}
	release()
	<-done
	if _, outs, _ := c.Do(ctx, []string{"k2"}, nil, noFill); outs[0] != flight.Hit {
		t.Error("in-flight entry k2 was evicted")
	}
	if c.Len() > 3 {
		t.Errorf("len = %d after resolutions, want <= 3", c.Len())
	}
	var refilled bool
	if _, _, err := c.Do(ctx, []string{"k0"}, nil, func(cl []int) ([]sweepValue, error) {
		refilled = true
		return bodyFill("b")(cl)
	}); err != nil || !refilled {
		t.Errorf("cold entry k0 survived eviction (refilled = %v, err %v)", refilled, err)
	}
}

// TestResultCacheKeyBuildDimension pins satellite of the mixed-version
// pool story: the sweep key (and so the ETag and shard routing) hashes
// the binary's build identity, so two builds can never serve each
// other's cached bodies and a client revalidating across a deploy gets
// a fresh body, not a stale 304.
func TestResultCacheKeyBuildDimension(t *testing.T) {
	o := harness.Options{Instructions: 10_000, Programs: []string{"li"}}
	saved := resultCacheBuild
	defer func() { resultCacheBuild = saved }()

	resultCacheBuild = "go1.x|v1|aaaa"
	keyA := mustKey(t, core.DefaultConfig(), o)
	if again := mustKey(t, core.DefaultConfig(), o); again != keyA {
		t.Errorf("key unstable within one build: %s vs %s", keyA, again)
	}
	resultCacheBuild = "go1.x|v1|bbbb"
	keyB := mustKey(t, core.DefaultConfig(), o)
	if keyA == keyB {
		t.Error("different builds share a sweep key")
	}
	if etagFor(keyA) == etagFor(keyB) {
		t.Error("different builds share an ETag")
	}
}

// TestH2PKeys: the h2p variant key family is disjoint from the plain
// family and distinguishes top-N values, per entry and per request.
func TestH2PKeys(t *testing.T) {
	entries := []string{"e1", "e2"}
	k10, r10 := h2pKeys(entries, "req", 10)
	k3, r3 := h2pKeys(entries, "req", 3)
	if r10 == "req" || r10 == r3 {
		t.Errorf("request keys collide: %q %q", r10, r3)
	}
	for i := range entries {
		if k10[i] == entries[i] || k10[i] == k3[i] {
			t.Errorf("entry %d keys collide: %q %q", i, k10[i], k3[i])
		}
	}
}
