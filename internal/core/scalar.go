package core

import (
	"mbbp/internal/isa"
	"mbbp/internal/pht"
	"mbbp/internal/trace"
)

// ScalarResult reports the conditional-branch accuracy of the scalar
// baseline predictor.
type ScalarResult struct {
	Program         string
	CondBranches    uint64
	CondMispredicts uint64
}

// MispredictRate returns the fraction of conditional branches
// mispredicted.
func (r ScalarResult) MispredictRate() float64 {
	if r.CondBranches == 0 {
		return 0
	}
	return float64(r.CondMispredicts) / float64(r.CondBranches)
}

// Add accumulates other into r.
func (r *ScalarResult) Add(other ScalarResult) {
	r.CondBranches += other.CondBranches
	r.CondMispredicts += other.CondMispredicts
}

// RunScalar measures the Figure 6 baseline: a scalar two-level adaptive
// predictor with numTables per-address pattern history tables (8 tables
// makes it equal in size to a blocked PHT with W = 8), predicting one
// conditional branch at a time with a per-branch-updated global history
// register.
func RunScalar(src *trace.Buffer, historyBits, numTables int) ScalarResult {
	src.Reset()
	res := ScalarResult{Program: src.Name}
	p := pht.NewScalar(historyBits, numTables)
	g := pht.NewGHR(historyBits)
	// Only conditional branches matter, and a run folds none: walk the
	// stored records.
	recs, _ := src.Rest()
	for _, r := range recs {
		if r.Class() != isa.ClassCond {
			continue
		}
		res.CondBranches++
		if p.Predict(g.Value(), r.PC()) != r.Taken() {
			res.CondMispredicts++
		}
		p.Update(g.Value(), r.PC(), r.Taken())
		g.Shift(r.Taken())
	}
	src.Skip(len(recs), 0)
	return res
}
