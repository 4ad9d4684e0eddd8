package harness

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mbbp/internal/core"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
)

// Lane batching is pure plumbing: however configurations are grouped
// into batches, ordered within a batch, or interleaved on the pool,
// each configuration's folded suite result must equal its independent
// RunConfigOn run. These properties complement the core-level lane
// equivalence suite (internal/core/lanes_test.go) one layer up, where
// grouping, futures and the scheduler join the picture.

// batchVariants are the configuration dimensions the experiment drivers
// reach, one per config index. Most keep the default geometry and so
// share lanes; the self-aligned and extended caches form their own
// groups.
var batchVariants = []func(*core.Config){
	func(*core.Config) {},
	func(c *core.Config) { c.Mode = core.SingleBlock },
	func(c *core.Config) { c.Geometry = icache.ForKind(icache.SelfAligned, 8) },
	func(c *core.Config) { c.NearBlock = true },
	func(c *core.Config) { c.Predictor, c.NumPHTs = core.PredictorTAGE, 1 },
	func(c *core.Config) { c.TargetArray, c.TargetEntries = core.BTB, 64 },
	func(c *core.Config) { c.Mode, c.BITEntries = core.SingleBlock, 64 },
	func(c *core.Config) { c.Selection = metrics.DoubleSelection },
	func(c *core.Config) { c.NumBlocks = 3 },
	func(c *core.Config) { c.ICacheLines, c.ICacheAssoc, c.ICacheMissPenalty = 64, 2, 10 },
	func(c *core.Config) { c.Geometry = icache.ForKind(icache.Extended, 8) },
}

// batchConfigs derives a mixed config set of n (at most
// len(batchVariants)) from fuzzable knobs: config i takes variant i on
// top of the knob-derived history length and PHT count.
func batchConfigs(n int, hist, tables uint8) []core.Config {
	n = max(1, min(n, len(batchVariants)))
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfg := core.DefaultConfig()
		cfg.HistoryBits = 4 + int(hist%8) + i%3
		cfg.NumPHTs = []int{1, 2, 4, 8}[tables%4]
		batchVariants[i](&cfg)
		cfgs[i] = cfg
	}
	return cfgs
}

// waitAll folds every promise, failing the test on any error.
func waitAll(t *testing.T, ps []*SuitePromise) []*SuiteResult {
	t.Helper()
	out := make([]*SuiteResult, len(ps))
	for i, p := range ps {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("promise %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// sameSuite compares two folded suite results exactly.
func sameSuite(a, b *SuiteResult) bool {
	if a.Int != b.Int || a.FP != b.FP || len(a.Per) != len(b.Per) {
		return false
	}
	for k, v := range a.Per {
		if b.Per[k] != v {
			return false
		}
	}
	return true
}

// TestBatchMatchesPerConfig: the ground truth — for every variant in
// batchVariants, the lane-grouped batch result equals the config's own
// one-config RunConfigOn batch, on the serial scheduler and on the
// pool.
func TestBatchMatchesPerConfig(t *testing.T) {
	cfgs := batchConfigs(len(batchVariants), 3, 2)
	pool := NewScheduler(4)
	defer pool.Close()

	var want []*SuiteResult
	for _, cfg := range cfgs {
		res, err := RunConfigOn(Serial(), testTraces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	for _, s := range []*Scheduler{Serial(), pool} {
		b := NewBatch(s, testTraces)
		var ps []*SuitePromise
		for _, cfg := range cfgs {
			ps = append(ps, b.RunConfig(cfg))
		}
		b.Flush()
		for i, res := range waitAll(t, ps) {
			if !sameSuite(res, want[i]) {
				t.Errorf("config %d: batched result differs from independent run", i)
			}
		}
	}
}

// TestBatchCollapsesDuplicates: a configuration registered twice in
// one batch runs as one lane — the observer factory runs once per
// (program, distinct configuration) — and both registrations fold the
// same result as the configuration's own one-config batch.
func TestBatchCollapsesDuplicates(t *testing.T) {
	cfgs := batchConfigs(3, 1, 0) // default, single block, self-aligned
	a, b := cfgs[0], cfgs[2]
	want, err := RunConfigOn(Serial(), testTraces, a)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewScheduler(4)
	defer pool.Close()

	type run struct {
		program string
		cfg     core.Config
	}
	for _, s := range []*Scheduler{Serial(), pool} {
		var mu sync.Mutex
		calls := make(map[run]int)
		tsv := testTraces.WithObserver(func(program string, cfg core.Config) core.Observer {
			mu.Lock()
			calls[run{program, cfg}]++
			mu.Unlock()
			return countingObserver{}
		})
		bt := NewBatch(s, tsv)
		ps := []*SuitePromise{bt.RunConfig(a), bt.RunConfig(b), bt.RunConfig(a)}
		bt.Flush()
		res := waitAll(t, ps)
		if !sameSuite(res[0], want) || !sameSuite(res[2], want) {
			t.Errorf("duplicate registrations fold differently from the config's own batch")
		}
		for _, name := range testTraces.Programs() {
			for _, cfg := range []core.Config{a, b} {
				if n := calls[run{name, cfg}]; n != 1 {
					t.Errorf("%s: observer factory ran %d times for one config, want 1", name, n)
				}
			}
		}
		if len(calls) != 2*len(testTraces.Programs()) {
			t.Errorf("observer factory saw %d (program, config) pairs, want %d",
				len(calls), 2*len(testTraces.Programs()))
		}
	}
}

// TestBatchOrderInsensitive (quick): submitting the same configurations
// to a batch in any order yields, per configuration, the same folded
// result — lane position is invisible.
func TestBatchOrderInsensitive(t *testing.T) {
	cfgs := batchConfigs(4, 5, 1)
	base := func() []*SuiteResult {
		b := NewBatch(Serial(), testTraces)
		var ps []*SuitePromise
		for _, cfg := range cfgs {
			ps = append(ps, b.RunConfig(cfg))
		}
		b.Flush()
		return waitAll(t, ps)
	}()

	prop := func(seed int64) bool {
		perm := rand.New(rand.NewSource(seed)).Perm(len(cfgs))
		b := NewBatch(Serial(), testTraces)
		ps := make([]*SuitePromise, len(cfgs))
		for _, i := range perm {
			ps[i] = b.RunConfig(cfgs[i])
		}
		b.Flush()
		for i, res := range waitAll(t, ps) {
			if !sameSuite(res, base[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestBatchPartitionInvariance (quick): splitting the configurations
// across several batches (several Flushes) changes only the lane
// grouping, never any result.
func TestBatchPartitionInvariance(t *testing.T) {
	prop := func(n, hist, tables uint8, cut uint8) bool {
		cfgs := batchConfigs(1+int(n%5), hist, tables)
		k := int(cut) % (len(cfgs) + 1)

		one := func() []*SuiteResult {
			b := NewBatch(Serial(), testTraces)
			var ps []*SuitePromise
			for _, cfg := range cfgs {
				ps = append(ps, b.RunConfig(cfg))
			}
			b.Flush()
			return waitAll(t, ps)
		}()

		var ps []*SuitePromise
		for _, part := range [][]core.Config{cfgs[:k], cfgs[k:]} {
			b := NewBatch(Serial(), testTraces)
			for _, cfg := range part {
				ps = append(ps, b.RunConfig(cfg))
			}
			b.Flush()
		}
		for i, res := range waitAll(t, ps) {
			if !sameSuite(res, one[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestBatchPooledNoAliasing drives many concurrent lane jobs — several
// batches of several mixed-geometry configurations each, all in flight
// on one pool at once, with observers attached — and checks every
// result against the serial per-config reference. Under -race (the CI
// lane-differential step) this doubles as the pin that pooled lanes
// never alias mutable per-lane state: any sharing of PHT/BIT/ST/target
// state or result structs across lanes or jobs is a data race here.
func TestBatchPooledNoAliasing(t *testing.T) {
	pool := NewScheduler(4)
	defer pool.Close()

	cfgs := batchConfigs(5, 2, 3)
	want := make([]metrics.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := RunConfigOn(Serial(), testTraces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Int
	}

	// Observers exercise the per-lane attach path concurrently.
	tsv := testTraces.WithObserver(func(string, core.Config) core.Observer {
		return countingObserver{}
	})
	const rounds = 4
	all := make([][]*SuitePromise, rounds)
	for r := range all {
		b := NewBatch(pool, tsv)
		for _, cfg := range cfgs {
			all[r] = append(all[r], b.RunConfig(cfg))
		}
		b.Flush()
	}
	for r, ps := range all {
		for i, res := range waitAll(t, ps) {
			if res.Int != want[i] {
				t.Errorf("round %d config %d: pooled lane result differs from serial reference", r, i)
			}
		}
	}
}

// countingObserver is a trivial observer: shared, stateless, safe.
type countingObserver struct{}

func (countingObserver) Observe(core.Event) {}
