package core_test

import (
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
	_ "mbbp/internal/tage"
)

// mixedLanes is a 32-lane, W = 8 grid shaped like a research sweep:
// every fourth lane runs TAGE, and the paper lanes cycle through the
// six structures the paper evaluates — dual block, double selection,
// single block, BTB targets, a finite BIT and three blocks per cycle —
// with history length, target entries, select tables and near-block
// encoding varied across lanes, so the lanes' predictor state does not
// all fit in cache at once.
func mixedLanes() []core.Config {
	cfgs := make([]core.Config, 0, 32)
	paper := 0
	for i := 0; i < 32; i++ {
		cfg := core.DefaultConfig()
		cfg.HistoryBits = 8 + i%5
		cfg.TargetEntries = 128 << (i % 3)
		cfg.NumSTs = 1 << (i % 3)
		cfg.NearBlock = i%2 == 1
		if i%4 == 3 {
			cfg.Predictor = core.PredictorTAGE
			cfgs = append(cfgs, cfg)
			continue
		}
		switch paper % 6 {
		case 1:
			cfg.Selection = metrics.DoubleSelection
		case 2:
			cfg.Mode = core.SingleBlock
		case 3:
			cfg.TargetArray = core.BTB
		case 4:
			cfg.BITEntries = 512
		case 5:
			cfg.NumBlocks = 3
		}
		paper++
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// BenchmarkLaneSetMixed runs the mixed 32-lane grid over one trace
// walk. Unlike BenchmarkLaneSet, whose eight lanes differ only in
// history length and all fit in cache, it shows both the per-block
// cost of every structure and the footprint of 32 lanes' tables.
func BenchmarkLaneSetMixed(b *testing.B) {
	tr := core.RandomTrace(1, 20_000)
	ls, err := core.NewLanes(mixedLanes())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var laneInstrs uint64
	for i := 0; i < b.N; i++ {
		rs := ls.Run(tr)
		laneInstrs += rs[0].Instructions * uint64(len(rs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(laneInstrs), "ns/instr/lane")
}
