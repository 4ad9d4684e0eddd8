package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mbbp/internal/cpu"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// randomTrace builds a well-formed random control-flow trace: a stream
// where every redirect is explicit and PCs advance sequentially
// otherwise, over a 4096-instruction address space.
func randomTrace(seed int64, n int) *trace.Buffer {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuffer("random")
	pc := uint32(0)
	const space = 1 << 12
	depth := 0
	var stack [64]uint32
	for i := 0; i < n; i++ {
		r := cpu.Retired{PC: pc}
		roll := rng.Intn(100)
		switch {
		case roll < 60: // plain
			r.Class = isa.ClassPlain
			pc++
		case roll < 80: // conditional
			r.Class = isa.ClassCond
			r.Target = uint32(rng.Intn(space))
			if rng.Intn(2) == 0 {
				r.Taken = true
				pc = r.Target
			} else {
				pc++
			}
		case roll < 88: // jump
			r.Class = isa.ClassJump
			r.Taken = true
			r.Target = uint32(rng.Intn(space))
			pc = r.Target
		case roll < 93: // call
			r.Class = isa.ClassCall
			r.Taken = true
			r.Target = uint32(rng.Intn(space))
			if depth < len(stack) {
				stack[depth] = pc + 1
				depth++
			}
			pc = r.Target
		case roll < 97 && depth > 0: // return
			r.Class = isa.ClassReturn
			r.Taken = true
			depth--
			r.Target = stack[depth]
			pc = r.Target
		default: // indirect
			r.Class = isa.ClassIndirect
			r.Taken = true
			r.Target = uint32(rng.Intn(space))
			pc = r.Target
		}
		if pc >= space {
			// Wrap sequential overflow with a virtual jump next time;
			// simplest is to clamp.
			pc = 0
			r.Taken = true
			if r.Class == isa.ClassPlain {
				r.Class = isa.ClassJump
			}
			r.Target = 0
		}
		b.Append(r)
	}
	return b
}

// randomConfig derives a valid configuration from fuzz bytes.
func randomConfig(a, b, c, d, e, f uint8) Config {
	cfg := DefaultConfig()
	widths := []int{4, 8, 16}
	cfg.Geometry = icache.ForKind(icache.Kind(a%3), widths[b%3])
	cfg.HistoryBits = int(c%10) + 3
	cfg.NumSTs = 1 << (d % 4)
	if e%2 == 0 {
		cfg.Mode = SingleBlock
	}
	switch e % 4 {
	case 1:
		cfg.Selection = metrics.DoubleSelection
		cfg.Mode = DualBlock
	}
	if f%2 == 0 {
		cfg.TargetArray = BTB
		cfg.TargetEntries = 32
	} else {
		cfg.TargetEntries = 1 << (f % 8)
	}
	if f%3 == 0 && cfg.Selection == metrics.SingleSelection {
		cfg.BITEntries = 64
	}
	if f%5 == 0 {
		cfg.NearBlock = true
	}
	// Exercise the §5 extension: 3- and 4-block groups (requires dual
	// mode and single selection).
	if e%8 >= 6 && cfg.Mode == DualBlock && cfg.Selection == metrics.SingleSelection {
		cfg.NumBlocks = 3 + int(e%2)
	}
	return cfg
}

// TestEngineInvariants fuzzes configurations and traces and checks the
// accounting invariants that must hold for any run:
//
//   - every instruction is fetched exactly once,
//   - fetch requests cover all blocks (1 or 2 blocks per request),
//   - penalties are consistent between cycle and event counts,
//   - direction statistics never exceed the branch counts.
func TestEngineInvariants(t *testing.T) {
	f := func(seed int64, a, b, c, d, e, g uint8) bool {
		cfg := randomConfig(a, b, c, d, e, g)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated invalid config: %v", err)
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := randomTrace(seed, 3000)
		res := eng.Run(tr)

		if res.Instructions != 3000 {
			t.Logf("instructions = %d", res.Instructions)
			return false
		}
		if res.Blocks == 0 || res.FetchCycles == 0 {
			return false
		}
		// Each request fetches between 1 and cfg.Blocks() blocks.
		if cfg.Mode == SingleBlock {
			if res.FetchCycles != res.Blocks {
				t.Logf("single: cycles %d != blocks %d", res.FetchCycles, res.Blocks)
				return false
			}
		} else {
			if res.FetchCycles > res.Blocks ||
				uint64(cfg.Blocks())*res.FetchCycles < res.Blocks {
				t.Logf("%d-block: cycles %d vs blocks %d", cfg.Blocks(), res.FetchCycles, res.Blocks)
				return false
			}
		}
		if res.CondMispredicts > res.CondBranches || res.CondBranches > res.Branches {
			return false
		}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			if res.PenaltyCycles[k] > 0 && res.PenaltyEvents[k] == 0 {
				return false
			}
			if res.PenaltyEvents[k] > 0 && res.PenaltyCycles[k] < res.PenaltyEvents[k] {
				return false
			}
		}
		// No penalty kind that is N/A for the configuration may appear.
		if cfg.Mode == SingleBlock {
			if res.PenaltyEvents[metrics.Misselect] != 0 ||
				res.PenaltyEvents[metrics.GHRMispredict] != 0 ||
				res.PenaltyEvents[metrics.BankConflict] != 0 {
				t.Log("single-block charged dual-only penalties")
				return false
			}
		}
		if cfg.Selection == metrics.DoubleSelection && res.PenaltyEvents[metrics.BITMispredict] != 0 {
			t.Log("double selection charged BIT penalties")
			return false
		}
		if cfg.BITEntries == 0 && res.PenaltyEvents[metrics.BITMispredict] != 0 {
			t.Log("perfect BIT charged penalties")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineDeterminism: the same trace and configuration always yield
// identical results.
func TestEngineDeterminism(t *testing.T) {
	tr := randomTrace(42, 5000)
	cfg := DefaultConfig()
	e1, _ := New(cfg)
	e2, _ := New(cfg)
	r1 := e1.Run(tr)
	r2 := e2.Run(tr)
	if r1 != r2 {
		t.Errorf("non-deterministic results:\n%+v\n%+v", r1, r2)
	}
}

// TestPerfectlyPredictableTraceHasNoPenalties: a straight-line trace
// (no control transfers) must fetch at the geometry's full width with
// zero penalties.
func TestPerfectlyPredictableTraceHasNoPenalties(t *testing.T) {
	b := trace.NewBuffer("straight")
	for pc := uint32(0); pc < 4096; pc++ {
		b.Append(cpu.Retired{PC: pc, Class: isa.ClassPlain})
	}
	for _, mode := range []FetchMode{SingleBlock, DualBlock} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		e, _ := New(cfg)
		res := e.Run(b)
		// The only admissible charge is the dual engine's cold-start
		// misselects (the select table starts invalid); those are
		// bounded by the table size and vanish once warm.
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			if k == metrics.Misselect {
				continue
			}
			if res.PenaltyCycles[k] != 0 {
				t.Errorf("%v: straight-line code charged %d cycles of %v", mode, res.PenaltyCycles[k], k)
			}
		}
		if mode == SingleBlock && res.TotalPenaltyCycles() != 0 {
			t.Errorf("single: %d penalty cycles", res.TotalPenaltyCycles())
		}
		if int(res.PenaltyEvents[metrics.Misselect]) > cfg.NumSTs*(1<<cfg.HistoryBits) {
			t.Errorf("%v: %d misselects exceed ST capacity", mode, res.PenaltyEvents[metrics.Misselect])
		}

		// A warm second pass over the same code must be penalty-free
		// and hit the geometry's full width.
		warm := e.Run(b)
		if warm.TotalPenaltyCycles() != 0 {
			t.Errorf("%v: warm straight-line pass charged %d penalty cycles", mode, warm.TotalPenaltyCycles())
		}
		want := 8.0
		if mode == DualBlock {
			want = 16.0
		}
		if got := warm.IPCf(); got != want {
			t.Errorf("%v: warm IPC_f = %v, want %v", mode, got, want)
		}
	}
}

// resetFamilies covers every structure family an engine can build:
// each entry adds one structure (or one shape of one) to the default
// configuration.
var resetFamilies = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	{"single block", func(c *Config) { c.Mode = SingleBlock }},
	{"btb", func(c *Config) { c.TargetArray, c.TargetEntries = BTB, 64 }},
	{"finite bit", func(c *Config) { c.BITEntries = 64 }},
	{"icache", func(c *Config) { c.ICacheLines, c.ICacheAssoc, c.ICacheMissPenalty = 64, 2, 10 }},
	{"double selection", func(c *Config) { c.Selection = metrics.DoubleSelection }},
	{"3 blocks", func(c *Config) { c.NumBlocks = 3 }},
	{"near block", func(c *Config) { c.NearBlock = true }},
	{"2 phts", func(c *Config) { c.NumPHTs = 2 }},
	{"tage", func(c *Config) { c.Predictor, c.NumPHTs = PredictorTAGE, 1 }},
}

// TestEngineResetIsFresh: for every structure family, an engine dirtied
// by two workload traces (with an observer installed) and then Reset
// runs the second trace again exactly as a brand-new engine does — full
// Result and Stats — without the observer, and Reset allocates nothing.
// Before that rerun the reset engine must equal a never-run one field
// for field, down to the packed words, which catches state no run
// happens to read.
// State the second trace trained is exactly what would make a stale
// rerun predict better than a fresh one. Workload traces, unlike the
// random ones, repeat their branch targets, so stale target arrays
// would show.
func TestEngineResetIsFresh(t *testing.T) {
	dirty, tr := benchTrace(t, "go", 20000), benchTrace(t, "li", 20000)
	for _, fam := range resetFamilies {
		t.Run(fam.name, func(t *testing.T) {
			cfg := DefaultConfig()
			fam.set(&cfg)
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, _ := New(cfg)
			var o countObserver
			e.SetObserver(&o)
			e.Run(dirty)
			e.Run(tr)
			seen := o.n
			e.Reset()
			if allocs := testing.AllocsPerRun(10, e.Reset); allocs != 0 {
				t.Errorf("Reset allocates %v times", allocs)
			}
			if cold, _ := New(cfg); !reflect.DeepEqual(e, cold) {
				t.Errorf("reset engine differs from a never-run one")
			}
			if got, want := e.Stats(), fresh.Stats(); got != want {
				t.Errorf("reset stats %+v, fresh %+v", got, want)
			}
			for pass := 0; pass < 2; pass++ {
				if got, want := e.Run(tr), fresh.Run(tr); got != want {
					t.Errorf("pass %d after Reset:\n got %+v\nwant %+v", pass, got, want)
				}
				if got, want := e.Stats(), fresh.Stats(); got != want {
					t.Errorf("pass %d stats after Reset %+v, fresh %+v", pass, got, want)
				}
			}
			if o.n != seen {
				t.Errorf("observer saw %d events after Reset, want none", o.n-seen)
			}
		})
	}

	// Without Reset, a second run starts warm and differs (fewer
	// cold-start penalties).
	e, _ := New(DefaultConfig())
	cold := e.Run(tr)
	warm := e.Run(tr)
	if warm.TotalPenaltyCycles() >= cold.TotalPenaltyCycles() {
		t.Errorf("warm run penalties (%d) not below cold (%d)",
			warm.TotalPenaltyCycles(), cold.TotalPenaltyCycles())
	}
}

// TestLaneSetResetIsFresh: a lane set of every structure family, reset
// after a dirtying run, matches a fresh set lane for lane and resets
// without allocating.
func TestLaneSetResetIsFresh(t *testing.T) {
	cfgs := make([]Config, len(resetFamilies))
	for i, fam := range resetFamilies {
		cfgs[i] = DefaultConfig()
		fam.set(&cfgs[i])
	}
	ls, err := NewLanes(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewLanes(cfgs)
	tr := benchTrace(t, "li", 20000)
	ls.Run(benchTrace(t, "go", 20000))
	ls.Run(tr)
	ls.Reset()
	if allocs := testing.AllocsPerRun(10, ls.Reset); allocs != 0 {
		t.Errorf("LaneSet.Reset allocates %v times", allocs)
	}
	if cold, _ := NewLanes(cfgs); !reflect.DeepEqual(ls, cold) {
		t.Errorf("reset lane set differs from a never-run one")
	}
	got, want := ls.Run(tr), fresh.Run(tr)
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("lane %d (%s) after Reset:\n got %+v\nwant %+v", i, resetFamilies[i].name, got[i], want[i])
		}
	}
}
