// Package icache models the instruction cache geometry the paper's
// fetch experiments depend on. The cache is otherwise perfect (the
// paper simulates no instruction misses): what matters is how line
// boundaries truncate fetch blocks, how many banks exist, and when two
// simultaneously fetched blocks collide in a bank (§3.3, §4.5).
package icache

import (
	"fmt"
	"math/bits"
)

// Kind selects one of the three cache organizations of §4.5.
type Kind int

const (
	// Normal: line size equals the block width; a block ends at the
	// line boundary, so misaligned targets shrink blocks.
	Normal Kind = iota
	// Extended: the line holds 2W instructions but at most W are
	// returned per block; truncation is rarer.
	Extended
	// SelfAligned: two consecutive lines are combined, so a block is
	// never truncated by alignment; the bank count is doubled to
	// offset the extra line accesses.
	SelfAligned
)

var kindNames = [...]string{"normal", "extend", "align"}

// String returns the paper's Table 6 name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind recognizes the Table 6 names.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("icache: unknown cache kind %q (want normal, extend, or align)", s)
}

// Geometry describes one cache configuration.
type Geometry struct {
	Kind       Kind
	BlockWidth int // W: maximum instructions returned per block
	LineSize   int // instructions per cache line
	Banks      int // number of banks
}

// ForKind returns the paper's Table 6 geometry for a block width:
// normal (line = W, 8 banks at W = 8), extended (line = 2W, same
// banks), self-aligned (line = W, banks doubled).
func ForKind(k Kind, blockWidth int) Geometry {
	g := Geometry{Kind: k, BlockWidth: blockWidth, LineSize: blockWidth, Banks: blockWidth}
	switch k {
	case Extended:
		g.LineSize = 2 * blockWidth
	case SelfAligned:
		g.Banks = 2 * blockWidth
	}
	return g
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.BlockWidth < 1 {
		return fmt.Errorf("icache: block width %d must be positive", g.BlockWidth)
	}
	if g.LineSize < g.BlockWidth {
		return fmt.Errorf("icache: line size %d smaller than block width %d", g.LineSize, g.BlockWidth)
	}
	if g.Banks < 1 || g.Banks&(g.Banks-1) != 0 {
		return fmt.Errorf("icache: banks %d must be a positive power of two", g.Banks)
	}
	if g.LineSize&(g.LineSize-1) != 0 {
		return fmt.Errorf("icache: line size %d must be a power of two", g.LineSize)
	}
	return nil
}

// The address arithmetic below relies on what Validate enforces: the
// line size and bank count are powers of two, so line index, line
// offset and bank are a shift and masks, never a divide. The block
// width need not be a power of two.

// lineShift returns log2(LineSize).
func (g Geometry) lineShift() uint { return uint(bits.TrailingZeros(uint(g.LineSize))) }

// LineOf returns the line index containing an instruction address.
func (g Geometry) LineOf(addr uint32) uint32 { return addr >> g.lineShift() }

// LineStart returns the address of the first instruction in addr's line.
func (g Geometry) LineStart(addr uint32) uint32 {
	return addr &^ uint32(g.LineSize-1)
}

// BlockLimit returns the maximum number of instructions a fetch block
// starting at start can contain under this geometry, before considering
// control transfers.
func (g Geometry) BlockLimit(start uint32) int {
	switch g.Kind {
	case SelfAligned:
		// Two consecutive lines are combined; alignment never
		// truncates.
		return g.BlockWidth
	default:
		room := g.LineSize - int(start&uint32(g.LineSize-1))
		if room > g.BlockWidth {
			return g.BlockWidth
		}
		return room
	}
}

// LinesTouched appends to dst the line indexes a block of n instructions
// starting at start reads, and returns the extended slice. Normal and
// extended blocks touch one line; self-aligned blocks may touch two.
func (g Geometry) LinesTouched(dst []uint32, start uint32, n int) []uint32 {
	if n < 1 {
		n = 1
	}
	first := g.LineOf(start)
	last := g.LineOf(start + uint32(n) - 1)
	dst = append(dst, first)
	if last != first {
		dst = append(dst, last)
	}
	return dst
}

// BankOf returns the bank servicing a line.
func (g Geometry) BankOf(line uint32) int { return int(line) & (g.Banks - 1) }

// Conflict reports whether fetching both line sets in one cycle causes a
// bank conflict (any line of a colliding with any line of b in the same
// bank but a different line — the same line read twice is a single
// access, not a conflict).
func (g Geometry) Conflict(a, b []uint32) bool {
	for _, la := range a {
		for _, lb := range b {
			if la != lb && g.BankOf(la) == g.BankOf(lb) {
				return true
			}
		}
	}
	return false
}
