package core

import (
	"testing"

	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
	"mbbp/internal/trace"
)

// fourBlockLoop builds a loop of four jump-linked blocks so a 4-block
// fetch group can cover one iteration per cycle.
func fourBlockLoop(n int) *trace.Buffer {
	starts := []uint32{0, 16, 32, 48}
	var rs []rec
	for i := 0; i < n; i++ {
		for bi, s := range starts {
			for pc := s; pc < s+7; pc++ {
				rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
			}
			next := starts[(bi+1)%len(starts)]
			rs = append(rs, rec{s + 7, isa.ClassJump, true, next})
		}
	}
	return mkTrace(rs)
}

// TestNBlockExtension checks the §5 extension: fetching 3 and 4 blocks
// per cycle raises the effective fetch rate beyond the dual-block
// engine on predictable code.
func TestNBlockExtension(t *testing.T) {
	tr := fourBlockLoop(400)
	rates := map[int]float64{}
	for _, blocks := range []int{1, 2, 3, 4} {
		cfg := DefaultConfig()
		if blocks == 1 {
			cfg.Mode = SingleBlock
		}
		cfg.NumBlocks = blocks
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("blocks=%d: %v", blocks, err)
		}
		res := e.Run(tr)
		rates[blocks] = res.IPCf()
		if res.Instructions == 0 {
			t.Fatalf("blocks=%d: empty run", blocks)
		}
		// Each request fetches at most `blocks` blocks.
		if res.FetchCycles*uint64(blocks) < res.Blocks {
			t.Errorf("blocks=%d: %d requests cannot cover %d blocks",
				blocks, res.FetchCycles, res.Blocks)
		}
	}
	if !(rates[1] < rates[2] && rates[2] < rates[3] && rates[3] < rates[4]) {
		t.Errorf("IPC_f should rise with blocks/cycle: %v", rates)
	}
	if rates[4] < 24 {
		t.Errorf("4-block IPC_f = %.2f, want near 32 on a steady loop", rates[4])
	}
}

// TestNBlockValidation checks the configuration constraints of the
// extension.
func TestNBlockValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBlocks = 3
	cfg.Selection = metrics.DoubleSelection
	if err := cfg.Validate(); err == nil {
		t.Error("3 blocks with double selection should be rejected")
	}
	cfg = DefaultConfig()
	cfg.NumBlocks = 5
	if err := cfg.Validate(); err == nil {
		t.Error("5 blocks should be rejected")
	}
	cfg = DefaultConfig()
	cfg.Mode = SingleBlock
	cfg.NumBlocks = 2
	if err := cfg.Validate(); err == nil {
		t.Error("NumBlocks 2 with single-block mode should be rejected")
	}
}

// TestPerBlockPHTVariant checks the paper's per-block multi-PHT
// variation runs and trains: branches in blocks with different low
// address bits use different tables.
func TestPerBlockPHTVariant(t *testing.T) {
	tr := loopTrace(400)
	for _, phts := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Mode = SingleBlock
		cfg.NumPHTs = phts
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("NumPHTs=%d: %v", phts, err)
		}
		res := e.Run(tr)
		if res.CondAccuracy() < 0.9 && res.CondBranches > 0 {
			t.Errorf("NumPHTs=%d: accuracy %.3f", phts, res.CondAccuracy())
		}
	}
}

// TestIndexModeAblation compares gshare against history-only indexing
// on a workload with many static branches: gshare's address bits should
// not hurt, and both must run correctly.
func TestIndexModeAblation(t *testing.T) {
	tr := randomTrace(99, 20000)
	for _, mode := range []pht.IndexMode{pht.IndexGShare, pht.IndexGlobal} {
		cfg := DefaultConfig()
		cfg.IndexMode = mode
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res := e.Run(tr)
		if res.Instructions != 20000 {
			t.Errorf("%v: instructions = %d", mode, res.Instructions)
		}
	}
}

// TestBlockedMultiIndexing unit-tests the banked PHT index math.
func TestBlockedMultiIndexing(t *testing.T) {
	b := pht.NewBlockedMulti(8, 8, 4, pht.IndexGShare)
	if b.Entries() != 4*256 || b.StateBits() != 4*256*8*2 {
		t.Fatalf("geometry: %d entries, %d bits", b.Entries(), b.StateBits())
	}
	// Addresses differing only in their low two bits use different
	// tables, so training one must not affect the other.
	b.At(b.Index(0x55, 0x100)).Update(0, true)
	b.At(b.Index(0x55, 0x100)).Update(0, true)
	if b.At(b.Index(0x55, 0x101)).Taken(0) {
		t.Error("different table was affected by training")
	}
	if !b.At(b.Index(0x55, 0x100)).Taken(0) {
		t.Error("trained table does not predict taken")
	}

	g := pht.NewBlockedMulti(8, 8, 1, pht.IndexGlobal)
	// History-only indexing: different addresses share an entry.
	if g.Index(0x5A, 1) != g.Index(0x5A, 9999) {
		t.Error("global indexing must ignore the address")
	}
}
