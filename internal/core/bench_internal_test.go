package core

import (
	"testing"

	"mbbp/internal/cpu"
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

// BenchmarkBlockReader measures pure segmentation throughput.
func BenchmarkBlockReader(b *testing.B) {
	tr := randomTrace(2, 10_000)
	geom := icache.ForKind(icache.Normal, 8)
	b.ResetTimer()
	blocks := 0
	for i := 0; i < b.N; i++ {
		tr.Reset()
		rd := newBlockReader(tr, geom)
		for {
			if _, ok := rd.next(); !ok {
				break
			}
			blocks++
		}
	}
	if blocks == 0 {
		b.Fatal("no blocks")
	}
}

// BenchmarkScanOnly isolates the BIT/PHT scan.
func BenchmarkScanOnly(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Mode = SingleBlock
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := randomTrace(3, 4096)
	tr.Reset()
	rd := newBlockReader(tr, e.geom)
	var blocks []block
	for {
		blk, ok := rd.next()
		if !ok {
			break
		}
		cp := *blk
		cp.insts = append([]cpu.Retired(nil), blk.insts...)
		blocks = append(blocks, cp)
	}
	e.pred.Lookup(0, 0)
	sh := newSharedBlock(e.geom)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &blocks[i%len(blocks)]
		sh.set(blk)
		_ = e.scan(blk, sh.trueCodes(e.cfg.NearBlock), e.pred)
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
