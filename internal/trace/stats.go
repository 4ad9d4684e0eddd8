package trace

import (
	"fmt"
	"strings"

	"mbbp/internal/isa"
)

// Stats summarizes a dynamic instruction stream. These are the
// trace-level properties the paper's results depend on (basic-block
// size, branch mix, taken rate), so the workload tests assert on them.
type Stats struct {
	Instructions uint64
	ByClass      [isa.NumClasses]uint64
	CondTaken    uint64 // taken conditional branches
	Redirects    uint64 // instructions that changed the PC

	// BasicBlocks counts maximal runs of instructions ending at a
	// control transfer (taken or not) — the paper's definition of a
	// basic block.
	BasicBlocks uint64
}

// Collect computes statistics over a trace (which it resets first and
// leaves drained). It walks the stored records: every instruction a run
// folds is plain and not taken, so a run only adds to the counts.
func Collect(src *Buffer) Stats {
	src.Reset()
	recs, _ := src.Rest()
	var s Stats
	for _, p := range recs {
		run := uint64(p.Run())
		s.Instructions += 1 + run
		s.ByClass[isa.ClassPlain] += run
		s.ByClass[p.Class()]++
		if p.Class() == isa.ClassCond && p.Taken() {
			s.CondTaken++
		}
		if p.Taken() {
			s.Redirects++
		}
		if p.Class().IsControlTransfer() {
			s.BasicBlocks++
		}
	}
	src.Skip(len(recs), 0)
	return s
}

// CondBranches returns the number of conditional branches.
func (s Stats) CondBranches() uint64 { return s.ByClass[isa.ClassCond] }

// CondTakenRate returns the fraction of conditional branches taken.
func (s Stats) CondTakenRate() float64 {
	if s.CondBranches() == 0 {
		return 0
	}
	return float64(s.CondTaken) / float64(s.CondBranches())
}

// MeanBasicBlock returns the average basic-block size in instructions.
func (s Stats) MeanBasicBlock() float64 {
	if s.BasicBlocks == 0 {
		return float64(s.Instructions)
	}
	return float64(s.Instructions) / float64(s.BasicBlocks)
}

// String renders a one-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instr=%d bb=%.2f cond=%d (%.1f%% taken) call=%d ret=%d ind=%d jump=%d",
		s.Instructions, s.MeanBasicBlock(),
		s.CondBranches(), 100*s.CondTakenRate(),
		s.ByClass[isa.ClassCall]+s.ByClass[isa.ClassIndirectCall],
		s.ByClass[isa.ClassReturn],
		s.ByClass[isa.ClassIndirect]+s.ByClass[isa.ClassIndirectCall],
		s.ByClass[isa.ClassJump])
	return b.String()
}
