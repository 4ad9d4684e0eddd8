package bac

import (
	"testing"

	"mbbp/internal/cpu"
	"mbbp/internal/isa"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

func mkTrace(recs [][4]uint32) *trace.Buffer {
	b := trace.NewBuffer("synthetic")
	for _, r := range recs {
		b.Append(cpu.Retired{PC: r[0], Class: isa.Class(r[1]), Taken: r[2] == 1, Target: r[3]})
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Entries = 100
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two entries should fail")
	}
	bad = DefaultConfig()
	bad.Assoc = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-dividing associativity should fail")
	}
}

func TestExponentialCost(t *testing.T) {
	// The defining property: per-entry cost grows exponentially with
	// the branches predicted per cycle (2, 6, 14 addresses for 1, 2,
	// 3 branches).
	c1 := CostBits(1, 30, 1)
	c2 := CostBits(1, 30, 2)
	c3 := CostBits(1, 30, 3)
	if !(c2 > 2*c1 && c3 > 2*c2-40) {
		t.Errorf("cost growth not superlinear: %d %d %d", c1, c2, c3)
	}
	// At the paper's scale, a 2-branch BAC dwarfs the select table's
	// linear 8 Kbit.
	if CostBits(256, 30, 2) < 8*1024 {
		t.Errorf("256-entry BAC = %d bits, expected far above an 8 Kbit ST",
			CostBits(256, 30, 2))
	}
}

func TestSteadyLoopFetchesTwoBlocks(t *testing.T) {
	// A loop alternating two basic blocks; once the BAC is warm, both
	// should be fetched per cycle.
	var rs [][4]uint32
	for i := 0; i < 300; i++ {
		rs = append(rs,
			[4]uint32{0, uint32(isa.ClassPlain), 0, 0},
			[4]uint32{1, uint32(isa.ClassPlain), 0, 0},
			[4]uint32{2, uint32(isa.ClassJump), 1, 16},
			[4]uint32{16, uint32(isa.ClassPlain), 0, 0},
			[4]uint32{17, uint32(isa.ClassJump), 1, 0},
		)
	}
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(mkTrace(rs))
	if res.Blocks != 600 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	// Warm steady state pairs the two blocks: cycles approach 300.
	if res.FetchCycles > 330 {
		t.Errorf("fetch cycles = %d, want ~300", res.FetchCycles)
	}
	if res.TotalPenaltyCycles() > 30 {
		t.Errorf("steady loop charged %d penalty cycles", res.TotalPenaltyCycles())
	}
}

func TestBasicBlocksEndAtNotTakenBranches(t *testing.T) {
	// Unlike the paper's fetch blocks, Yeh-style basic blocks end at
	// every branch: a run with one not-taken conditional splits in two.
	rs := [][4]uint32{
		{0, uint32(isa.ClassPlain), 0, 0},
		{1, uint32(isa.ClassCond), 0, 50}, // not taken: still ends the block
		{2, uint32(isa.ClassPlain), 0, 0},
		{3, uint32(isa.ClassJump), 1, 0},
	}
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(mkTrace(rs))
	if res.Blocks != 2 {
		t.Errorf("blocks = %d, want 2 (NT cond ends a basic block)", res.Blocks)
	}
}

// TestBaselineVsPaperEngine is the comparison the paper's introduction
// makes: on the same workload, the block-based scheme fetches more
// instructions per cycle than the basic-block-based BAC baseline,
// because not-taken branches do not end its fetch blocks.
func TestBaselineVsPaperEngine(t *testing.T) {
	b, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(200_000)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rb := base.Run(tr)
	if rb.Instructions != 200_000 {
		t.Fatalf("baseline consumed %d instructions", rb.Instructions)
	}
	if rb.IPCf() <= 0 {
		t.Fatal("baseline produced no throughput")
	}
	t.Logf("BAC baseline: IPC_f=%.2f IPB=%.2f BEP=%.3f acc=%.2f%%",
		rb.IPCf(), rb.IPB(), rb.BEP(), 100*rb.CondAccuracy())
}

func TestMispredictionsCharged(t *testing.T) {
	// An alternating branch defeats the 2-bit counters some of the
	// time; penalties must appear.
	var rs [][4]uint32
	for i := 0; i < 200; i++ {
		taken := uint32(i % 2)
		next := uint32(2)
		if taken == 1 {
			next = 32
		}
		rs = append(rs, [4]uint32{0, uint32(isa.ClassPlain), 0, 0})
		rs = append(rs, [4]uint32{1, uint32(isa.ClassCond), taken, 32})
		rs = append(rs, [4]uint32{next, uint32(isa.ClassJump), 1, 0})
	}
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(mkTrace(rs))
	if res.CondBranches == 0 {
		t.Fatal("no conditional branches seen")
	}
	if res.TotalPenaltyCycles() == 0 {
		t.Error("alternating branch should cost penalties")
	}
}
