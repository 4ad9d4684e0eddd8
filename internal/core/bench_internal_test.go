package core

import (
	"math/bits"
	"testing"

	"mbbp/internal/icache"
)

// BenchmarkConsume measures the dual-block engine's block-processing
// rate on a synthetic control-flow trace.
func BenchmarkConsume(b *testing.B) {
	tr := randomTrace(1, 10_000)
	e, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		res := e.Run(tr)
		total += res.Instructions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkBlockReader measures block formation throughput: finding
// each block's end and deriving its branch masks and conditional
// outcomes, which the benchmark reads back.
func BenchmarkBlockReader(b *testing.B) {
	tr := randomTrace(2, 10_000)
	geom := icache.ForKind(icache.Normal, 8)
	b.ResetTimer()
	blocks, branches := 0, 0
	for i := 0; i < b.N; i++ {
		tr.Reset()
		rd := newBlockReader(tr, geom)
		for {
			blk, ok := rd.next()
			if !ok {
				break
			}
			blocks++
			branches += bits.OnesCount64(blk.branch) + blk.condN
		}
	}
	if blocks == 0 || branches == 0 {
		b.Fatal("no blocks or no branches")
	}
}

// BenchmarkScanOnly isolates the BIT/PHT scan over blocks formed by the
// reader, with each block's true codes encoded from its branch mask.
func BenchmarkScanOnly(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mode = SingleBlock
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blocks := readBlocks(b, randomTrace(3, 4096), e.geom)
	e.pred.Lookup(0, 0)
	sh := newSharedBlock(e.geom)
	var sc scanResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &blocks[i%len(blocks)]
		sh.set(blk)
		e.scan(blk, sh.trueCodes(e.cfg.NearBlock), e.pred, &sc)
	}
}

// BenchmarkLaneSet measures a 8-lane lockstep run against the same
// work done as 8 independent engine runs (BenchmarkConsume × 8).
func BenchmarkLaneSet(b *testing.B) {
	tr := randomTrace(1, 10_000)
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = DefaultConfig()
		cfgs[i].HistoryBits = 6 + i
	}
	ls, err := NewLanes(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		rs := ls.Run(tr)
		total += rs[0].Instructions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrs/s")
}
