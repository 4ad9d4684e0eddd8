package pht

import "mbbp/internal/packed"

// Scalar is the equal-cost scalar two-level baseline from Figure 6: a
// per-address scheme with numTables pattern history tables selected by
// the branch address's low bits, each table holding 2^historyBits 2-bit
// counters indexed gshare-style by the global history XORed with the
// remaining address bits. With 8 tables it matches the storage of a
// blocked PHT with W = 8. It predicts one branch per lookup and its
// history register is updated per branch, not per block.
//
// Counters are bit-packed, two bits each.
type Scalar struct {
	tables    int
	tableBits int
	idxMask   uint32
	selMask   uint32
	selShift  uint

	pk *packed.Counter2Array // tables * 2^historyBits counters, flat
}

// NewScalar creates the baseline predictor. numTables must be a power
// of two.
func NewScalar(historyBits, numTables int) *Scalar {
	if historyBits < 1 || historyBits > 26 {
		panic("pht: history bits out of range")
	}
	if numTables < 1 || numTables&(numTables-1) != 0 {
		panic("pht: numTables must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < numTables {
		shift++
	}
	n := 1 << historyBits
	return &Scalar{
		tables:    numTables,
		tableBits: historyBits,
		idxMask:   uint32(n - 1),
		selMask:   uint32(numTables - 1),
		selShift:  shift,
		pk:        packed.NewCounter2Array(numTables*n, uint8(WeaklyNotTaken)),
	}
}

func (s *Scalar) slot(history, branchAddr uint32) int {
	table := branchAddr & s.selMask
	idx := (history ^ branchAddr>>s.selShift) & s.idxMask
	return int(table)<<s.tableBits | int(idx)
}

// Predict returns the predicted direction for the branch at branchAddr.
func (s *Scalar) Predict(history, branchAddr uint32) bool {
	return Counter(s.pk.Get(s.slot(history, branchAddr))).Taken()
}

// Update trains the counter for the branch.
func (s *Scalar) Update(history, branchAddr uint32, taken bool) {
	s.pk.Update(s.slot(history, branchAddr), taken)
}

// StateBits returns the storage cost in bits (2 per counter).
func (s *Scalar) StateBits() int { return s.tables << s.tableBits * 2 }
