package mbbp

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section. Each benchmark re-runs its experiment
// on a fixed-size workload trace set and reports the paper's metrics
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// reported series. The CLI (cmd/mbpexp) renders the same experiments as
// full tables at larger trace sizes.

import (
	"sync"
	"testing"

	"mbbp/internal/harness"
	"mbbp/internal/metrics"
)

// benchInstructions keeps the per-program trace length small enough for
// quick iteration; cmd/mbpexp defaults to 10x more.
const benchInstructions = 200_000

var (
	benchOnce   sync.Once
	benchTraces *harness.TraceSet
	benchErr    error
)

// run runs one experiment over ts through its descriptor.
func run[R any](b *testing.B, d *harness.Descriptor[R], ts *harness.TraceSet) R {
	r, err := d.Run(harness.DefaultScheduler(), ts, harness.Params{})()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func traces(b *testing.B) *harness.TraceSet {
	benchOnce.Do(func() {
		benchTraces, benchErr = harness.LoadTraces(harness.Options{Instructions: benchInstructions})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTraces
}

// BenchmarkFig6BlockedVsScalar regenerates Figure 6: conditional branch
// misprediction of the blocked PHT vs the equal-size scalar two-level
// predictor, history length 6-12.
func BenchmarkFig6BlockedVsScalar(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Fig6, ts)
		if i == 0 {
			for _, r := range rows {
				if r.History == 10 {
					b.ReportMetric(100*r.BlockedInt, "int-misp-%")
					b.ReportMetric(100*r.BlockedFP, "fp-misp-%")
					b.ReportMetric(r.ImproveInt, "int-improve-pp")
				}
			}
		}
	}
}

// BenchmarkFig7BITSize regenerates Figure 7: BEP contribution of a
// finite BIT table and the resulting fetch rate, 64-4096 entries.
func BenchmarkFig7BITSize(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Fig7, ts)
		if i == 0 {
			first, last := rows[0], rows[len(rows)-1]
			b.ReportMetric(first.PctBEPInt, "bit64-int-%bep")
			b.ReportMetric(last.PctBEPInt, "bit4096-int-%bep")
			b.ReportMetric(last.IPCfInt, "bit4096-int-ipcf")
		}
	}
}

// BenchmarkFig8Selection regenerates Figure 8: IPC_f for single vs
// double selection across history lengths and select-table counts.
func BenchmarkFig8Selection(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Fig8, ts)
		if i == 0 {
			for _, r := range rows {
				if r.History == 10 && r.STs == 8 {
					b.ReportMetric(r.SingleInt, "int-single-ipcf")
					b.ReportMetric(r.DoubleInt, "int-double-ipcf")
					b.ReportMetric(r.SingleFP, "fp-single-ipcf")
				}
			}
		}
	}
}

// BenchmarkTable5TargetArrays regenerates Table 5: misfetch BEP share
// for BTB vs NLS sizes with and without near-block encoding (SPECint).
func BenchmarkTable5TargetArrays(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Table5, ts)
		if i == 0 {
			for _, r := range rows {
				if r.Kind == NLS && r.Entries == 256 && !r.NearBlock {
					b.ReportMetric(r.IPCf, "nls256-ipcf")
					b.ReportMetric(r.BEP, "nls256-bep")
				}
				if r.Kind == BTB && r.Entries == 32 && !r.NearBlock {
					b.ReportMetric(r.IPCf, "btb32-ipcf")
				}
			}
		}
	}
}

// BenchmarkTable6CacheTypes regenerates Table 6: IPB and IPC_f for the
// normal, extended and self-aligned caches with 1- and 2-block
// fetching.
func BenchmarkTable6CacheTypes(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Table6, ts)
		if i == 0 {
			for _, r := range rows {
				switch r.Kind {
				case CacheNormal:
					b.ReportMetric(r.IPCf2FP, "normal-fp-2blk-ipcf")
				case CacheSelfAligned:
					b.ReportMetric(r.IPCf2FP, "align-fp-2blk-ipcf")
					b.ReportMetric(r.IPCf2Int, "align-int-2blk-ipcf")
				}
			}
		}
	}
}

// BenchmarkFig9Breakdown regenerates Figure 9: the per-program BEP
// breakdown for two-block single selection on a self-aligned cache.
func BenchmarkFig9Breakdown(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Fig9, ts)
		if i == 0 {
			for _, r := range rows {
				if r.Program == "CINT95" {
					b.ReportMetric(r.BEP, "int-bep")
					b.ReportMetric(r.ByKind[metrics.CondMispredict], "int-bep-cond")
				}
				if r.Program == "CFP95" {
					b.ReportMetric(r.BEP, "fp-bep")
				}
			}
		}
	}
}

// BenchmarkCostModel regenerates the §5 cost walkthrough (Table 7).
func BenchmarkCostModel(b *testing.B) {
	var est CostEstimate
	for i := 0; i < b.N; i++ {
		est = EstimateCost(PaperCostParams())
	}
	b.ReportMetric(float64(est.SingleBlockTotal())/1024, "single-kbits")
	b.ReportMetric(float64(est.DualSingleTotal())/1024, "dual-single-kbits")
	b.ReportMetric(float64(est.DualDoubleTotal())/1024, "dual-double-kbits")
}

// BenchmarkExtBlocks regenerates the §5 extension sweep: effective
// fetch rate for 1-4 blocks per cycle.
func BenchmarkExtBlocks(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.ExtBlocks, ts)
		if i == 0 {
			for _, r := range rows {
				switch r.Blocks {
				case 2:
					b.ReportMetric(r.IPCfFP, "fp-2blk-ipcf")
				case 4:
					b.ReportMetric(r.IPCfFP, "fp-4blk-ipcf")
					b.ReportMetric(r.IPCfInt, "int-4blk-ipcf")
				}
			}
		}
	}
}

// BenchmarkAblationPHT regenerates the predictor-organization ablation:
// gshare vs history-only indexing, one vs four blocked PHTs.
func BenchmarkAblationPHT(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Ablation, ts)
		if i == 0 {
			b.ReportMetric(rows[0].MispIntPct, "gshare-int-misp-%")
			b.ReportMetric(rows[1].MispIntPct, "global-int-misp-%")
		}
	}
}

// BenchmarkCompareHeadlines measures the paper's headline claims
// (accuracy, dual/single ratios, near-block share) in one pass.
func BenchmarkCompareHeadlines(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		c := run(b, harness.Compare, ts)
		if i == 0 {
			b.ReportMetric(100*c.IntAccuracy, "int-acc-%")
			b.ReportMetric(100*c.FPAccuracy, "fp-acc-%")
			b.ReportMetric(c.DualRatioInt, "dual-ratio-int")
			b.ReportMetric(c.DualRatioFP, "dual-ratio-fp")
			b.ReportMetric(100*c.NearShare, "near-share-%")
		}
	}
}

// BenchmarkBaselineBAC regenerates the introduction's comparison: the
// paper's linear-cost scheme vs Yeh's exponential-cost branch address
// cache at several sizes.
func BenchmarkBaselineBAC(b *testing.B) {
	ts := traces(b)
	for i := 0; i < b.N; i++ {
		rows := run(b, harness.Baseline, ts)
		if i == 0 {
			for _, r := range rows {
				switch r.Scheme {
				case "Yeh BAC, 256 entries":
					b.ReportMetric(r.IPCfInt, "bac256-int-ipcf")
					b.ReportMetric(r.CostKbits, "bac256-kbits")
				case "blocked PHT + select table (paper)":
					b.ReportMetric(r.IPCfInt, "paper-int-ipcf")
					b.ReportMetric(r.CostKbits, "paper-kbits")
				}
			}
		}
	}
}

// BenchmarkEngineThroughput measures raw simulation speed: dynamic
// instructions processed per second by the default dual-block engine.
func BenchmarkEngineThroughput(b *testing.B) {
	ts := traces(b)
	tr := ts.Trace("gcc")
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine()
		if err != nil {
			b.Fatal(err)
		}
		res := e.Run(tr)
		if res.Instructions == 0 {
			b.Fatal("empty run")
		}
	}
	b.ReportMetric(float64(benchInstructions)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
