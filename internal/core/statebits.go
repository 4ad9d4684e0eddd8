package core

// TargetLineIndexBits is the Table 7 convention for the size of a
// stored target: a 10-bit line index into the paper's 32 KByte
// direct-mapped instruction cache.
const TargetLineIndexBits = 10

// StateBitsBreakdown reports the modeled hardware cost of a live
// engine's predictor structures, measured from the structures
// themselves with the paper's Table 7 accounting (so a configuration
// sweep can print its own hardware-cost table instead of re-deriving
// the closed forms).
type StateBitsBreakdown struct {
	// PHT is the direction predictor's storage: p * 2^k * 2W for the
	// paper's blocked tables (every 2-bit counter), or the tagged
	// tables' counters + tags + useful bits plus the bimodal base for
	// the TAGE strategy. The field keeps its paper name because every
	// rendered cost table labels this row "PHT".
	PHT int
	// BIT is b * line * bits-per-instruction; 0 when BIT information
	// lives in the instruction cache (the perfect table) or when double
	// selection removes the table.
	BIT int
	// SelectTable is s * 2^k * SelectorBits (doubled per entry under
	// double selection); 0 in single-block mode.
	SelectTable int
	// TargetArray is the target storage at TargetLineIndexBits per
	// target, summed over the group's duplicated NLS arrays.
	TargetArray int
}

// Total returns the summed storage cost in bits.
func (s StateBitsBreakdown) Total() int {
	return s.PHT + s.BIT + s.SelectTable + s.TargetArray
}

// StateBits measures the storage cost of the engine's live structures.
func (e *Engine) StateBits() StateBitsBreakdown {
	var s StateBitsBreakdown
	s.PHT = e.pred.StateBits()
	if e.bit != nil {
		s.BIT = e.bit.StateBits()
	}
	if e.st != nil {
		s.SelectTable = e.st.StateBits()
	}
	s.TargetArray = e.tgt.StateBits(TargetLineIndexBits)
	return s
}
