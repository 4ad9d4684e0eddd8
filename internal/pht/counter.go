// Package pht implements the two-level adaptive pattern history tables
// at the heart of the paper: the 2-bit saturating counter, the global
// history register, the blocked PHT that predicts every conditional
// branch position in a fetch block with one lookup (the paper's primary
// multiple-branch-prediction contribution), and the scalar per-address
// PHT used as the equal-cost baseline in Figure 6.
//
// Both tables store their counters bit-packed (internal/packed), two
// bits each. The one-byte-per-counter models they are checked against
// are test oracles (oracle_test.go).
package pht

// Counter is a 2-bit up/down saturating counter (Smith counter):
// 0 strongly not-taken, 1 weakly not-taken, 2 weakly taken,
// 3 strongly taken.
type Counter uint8

// WeaklyNotTaken is the conventional initial state.
const WeaklyNotTaken Counter = 1

// Taken returns the predicted direction.
func (c Counter) Taken() bool { return c >= 2 }

// SecondChance reports whether the counter is in a strong state, i.e.
// one misprediction will not flip the predicted direction. This is the
// "second chance" bit recorded in a bad branch recovery entry (paper
// Table 2 discussion).
func (c Counter) SecondChance() bool { return c == 0 || c == 3 }

// GHR is a global (branch) history register of fixed length. Outcomes
// are shifted in least-significant-bit first, oldest outcome in the
// highest bit, exactly as the paper describes: after predicting
// not-taken, not-taken, taken in one block, the register is shifted
// left three and "001" inserted.
type GHR struct {
	mask uint32
	val  uint32
}

// NewGHR returns a history register of the given length (1..30 bits).
func NewGHR(bits int) *GHR {
	if bits < 1 || bits > 30 {
		panic("pht: GHR length out of range")
	}
	return &GHR{mask: 1<<bits - 1}
}

// Value returns the current history pattern.
func (g *GHR) Value() uint32 { return g.val }

// Reset clears the history, as if freshly built.
func (g *GHR) Reset() { g.val = 0 }

// Shift records one conditional-branch outcome.
func (g *GHR) Shift(taken bool) {
	g.val = g.val << 1 & g.mask
	if taken {
		g.val |= 1
	}
}

// ShiftPacked records n outcomes packed into bits (bit n-1 = oldest),
// as n calls of Shift would, in one shift and mask. bits must be below
// 2^n; a shift of 32 or more clears the register before bits go in.
func (g *GHR) ShiftPacked(n int, bits uint32) {
	g.val = (g.val<<uint(n) | bits) & g.mask
}
