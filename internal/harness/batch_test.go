package harness

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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

// countLaneSets makes newLaneSet count the lane sets built until the
// test ends.
func countLaneSets(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	newLaneSet = func(cfgs []core.Config) (*core.LaneSet, error) {
		n.Add(1)
		return core.NewLanes(cfgs)
	}
	t.Cleanup(func() { newLaneSet = core.NewLanes })
	return &n
}

// TestBatchReusesLaneSets: a batch of one lane set over every program
// builds one set on the serial scheduler and at most one per worker on
// the pool — not one per program — and the reused sets' results equal
// each configuration's own one-config batch.
func TestBatchReusesLaneSets(t *testing.T) {
	cfgs := batchConfigs(5, 3, 2)
	cfgs = append(cfgs[:2], cfgs[3:]...) // drop the self-aligned geometry: one lane set
	var want []*SuiteResult
	for _, cfg := range cfgs {
		res, err := RunConfigOn(Serial(), testTraces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	pool := NewScheduler(2)
	defer pool.Close()
	built := countLaneSets(t)
	for _, s := range []*Scheduler{Serial(), pool} {
		built.Store(0)
		b := NewBatch(s, testTraces)
		var ps []*SuitePromise
		for _, cfg := range cfgs {
			ps = append(ps, b.RunConfig(cfg))
		}
		b.Flush()
		for i, res := range waitAll(t, ps) {
			if !sameSuite(res, want[i]) {
				t.Errorf("workers=%d config %d: reused lane set's result differs from its own batch", s.Workers(), i)
			}
		}
		if n, most := built.Load(), int64(max(1, s.Workers())); n < 1 || n > most {
			t.Errorf("workers=%d: built %d lane sets for %d programs, want 1..%d",
				s.Workers(), n, len(testTraces.Programs()), most)
		}
	}
}

// TestBatchReusedLaneDropsObserver: an observer attached for one
// program's job never sees another program's blocks, though the serial
// scheduler runs every program on one reused lane set. Every other
// program gets no observer, so a carried one would count their blocks.
func TestBatchReusedLaneDropsObserver(t *testing.T) {
	cfg := core.DefaultConfig()
	var mu sync.Mutex
	seen := make(map[string]*blockCounter)
	ts := testTraces.WithObserver(func(program string, _ core.Config) core.Observer {
		mu.Lock()
		defer mu.Unlock()
		if len(seen)%2 == 1 {
			seen[program] = nil
			return nil
		}
		o := &blockCounter{}
		seen[program] = o
		return o
	})
	built := countLaneSets(t)
	res, err := RunConfigOn(Serial(), ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("built %d lane sets, want 1 reused across programs", n)
	}
	for program, o := range seen {
		if o != nil && o.n != res.Per[program].Blocks {
			t.Errorf("%s: observer saw %d blocks, want its own run's %d", program, o.n, res.Per[program].Blocks)
		}
	}
}

// TestBatchPanickedLaneSetDropped: a lane set whose job panicked is not
// reused. On the serial scheduler the programs after the victim run on
// a newly built set — two builds in all — and every one of them still
// matches the configuration's own batch.
func TestBatchPanickedLaneSetDropped(t *testing.T) {
	cfg := core.DefaultConfig()
	want, err := RunConfigOn(Serial(), testTraces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	programs := testTraces.Programs()
	victim := programs[1]
	ts := testTraces.WithObserver(func(program string, _ core.Config) core.Observer {
		if program == victim {
			return panicObserver{}
		}
		return nil
	})
	built := countLaneSets(t)
	b := NewBatch(Serial(), ts)
	p := b.RunConfig(cfg)
	b.Flush()
	if n := built.Load(); n != 2 {
		t.Errorf("built %d lane sets, want 2 (the panicked set dropped)", n)
	}
	for i, f := range p.futs {
		res, err := f.Wait()
		if programs[i] == victim {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Errorf("%s: err %v, want a *PanicError", victim, err)
			}
			continue
		}
		if err != nil || res != want.Per[programs[i]] {
			t.Errorf("%s: result differs from its own batch (err %v)", programs[i], err)
		}
	}
}

// blockCounter counts the blocks one job's run shows it.
type blockCounter struct{ n uint64 }

func (o *blockCounter) Observe(core.Event) { o.n++ }

// countingObserver is a trivial observer: shared, stateless, safe.
type countingObserver struct{}

func (countingObserver) Observe(core.Event) {}
