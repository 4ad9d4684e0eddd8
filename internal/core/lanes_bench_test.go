package core_test

import (
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
	_ "mbbp/internal/tage"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
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

// suiteBenchPrograms are the workload programs BenchmarkLaneSetSuite
// walks: three integer and three floating-point programs, from the
// small-footprint loop nests to gcc's large text, at a length where
// each lane's tables fill as they do in the suite sweeps.
var suiteBenchPrograms = []string{"compress", "gcc", "go", "applu", "fpppp", "swim"}

const suiteBenchInstrs = 300_000

// BenchmarkLaneSetSuite runs lane sets over workload traces, the shape
// the research sweeps run: the 32-lane mixedLanes grid, and one lane of
// DefaultConfig, the path every single-configuration run takes. The
// random-trace lane benchmarks cannot show how the walk order keeps a
// lane's state warm: their short random traces leave every table small
// and cold-miss bound alike. Reports host ns per instruction per lane.
func BenchmarkLaneSetSuite(b *testing.B) {
	traces := make([]*trace.Buffer, len(suiteBenchPrograms))
	for i, name := range suiteBenchPrograms {
		w, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if traces[i], err = w.Trace(suiteBenchInstrs); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		cfgs []core.Config
	}{
		{"lanes=32", mixedLanes()},
		{"lanes=1", []core.Config{core.DefaultConfig()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ls, err := core.NewLanes(c.cfgs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var laneInstrs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ls.Reset()
				b.StartTimer()
				for _, tr := range traces {
					rs := ls.Run(tr)
					laneInstrs += rs[0].Instructions * uint64(len(rs))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(laneInstrs), "ns/instr/lane")
		})
	}
}
