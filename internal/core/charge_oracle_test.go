package core_test

import (
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	_ "mbbp/internal/tage"
)

// TestEventChargeMatchesPenaltyDeltas: the Penalty and Kind an Event
// reports, kept by the engine as it charges, equal the largest per-kind
// PenaltyCycles increase over the block (ties to the lower kind) on
// every block, across the configuration dimensions the experiment
// drivers reach (the harness batch variants), for lone engines and for
// lanes sharing one walk.
func TestEventChargeMatchesPenaltyDeltas(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"default", func(*core.Config) {}},
		{"single block", func(c *core.Config) { c.Mode = core.SingleBlock }},
		{"self-aligned", func(c *core.Config) { c.Geometry = icache.ForKind(icache.SelfAligned, 8) }},
		{"near block", func(c *core.Config) { c.NearBlock = true }},
		{"tage", func(c *core.Config) { c.Predictor, c.NumPHTs = core.PredictorTAGE, 1 }},
		{"btb", func(c *core.Config) { c.TargetArray, c.TargetEntries = core.BTB, 64 }},
		{"finite bit", func(c *core.Config) { c.Mode, c.BITEntries = core.SingleBlock, 64 }},
		{"double select", func(c *core.Config) { c.Selection = metrics.DoubleSelection }},
		{"three blocks", func(c *core.Config) { c.NumBlocks = 3 }},
		{"icache model", func(c *core.Config) { c.ICacheLines, c.ICacheAssoc, c.ICacheMissPenalty = 64, 2, 10 }},
		{"extended", func(c *core.Config) { c.Geometry = icache.ForKind(icache.Extended, 8) }},
	}
	for seed := int64(1); seed <= 3; seed++ {
		tr := core.RandomTrace(seed, 20_000)
		var lanes []core.Config
		for _, v := range variants {
			name := v.name
			cfg := core.DefaultConfig()
			v.mut(&cfg)
			e, err := core.New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			o := &core.ChargeOracle{E: e}
			e.SetObserver(o)
			res := e.Run(tr)
			if o.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, o.Err)
			}
			if o.Blocks != res.Blocks || o.Charged == 0 {
				t.Fatalf("seed %d %s: observed %d blocks (%d charged) of %d", seed, name, o.Blocks, o.Charged, res.Blocks)
			}
			if cfg.Geometry == core.DefaultConfig().Geometry {
				lanes = append(lanes, cfg)
			}
		}
		ls, err := core.NewLanes(lanes)
		if err != nil {
			t.Fatal(err)
		}
		oracles := make([]*core.ChargeOracle, len(lanes))
		for i, e := range ls.Lanes() {
			oracles[i] = &core.ChargeOracle{E: e}
			e.SetObserver(oracles[i])
		}
		ls.Run(tr)
		for i, o := range oracles {
			if o.Err != nil {
				t.Fatalf("seed %d lane %d (%s): %v", seed, i, lanes[i], o.Err)
			}
		}
	}
}
