// Package seltab implements the select table of §3, the paper's
// mechanism for predicting a second (and, with double selection, first)
// fetch block in parallel: instead of waiting for the first block's
// BIT and PHT information, the multiplexer-select outcome of a previous
// prediction is memoized and replayed. An entry also carries the
// GHR-update information (number of not-taken conditional branches plus
// a taken/fall-through bit) and, when near-block targets are in use, the
// predicted starting offset within the target line.
//
// Entries are stored bit-packed (internal/packed), each selector field
// sized by the fetch geometry. The wide-struct []Entry table it is
// checked against is a test oracle (oracle_test.go).
package seltab

import (
	"fmt"

	"mbbp/internal/packed"
)

// Source enumerates the next-fetch multiplexer inputs (paper Table 1
// plus the RAS-bypass inputs of §3.1 resolved by the engine).
type Source uint8

const (
	// SrcFallThrough selects the sequential address after the block.
	SrcFallThrough Source = iota
	// SrcRAS selects the return address stack (with §3.1 bypassing for
	// the second block).
	SrcRAS
	// SrcTarget selects the target array entry for exit position Pos.
	SrcTarget
	// SrcNearPrev..SrcNearNext2 select a near-block computed target:
	// current line -1, +0, +1, +2 lines, at offset StartOff.
	SrcNearPrev
	SrcNearSame
	SrcNearNext
	SrcNearNext2

	numSources
)

var sourceNames = [numSources]string{
	"fallthrough", "ras", "target",
	"near-prev", "near-same", "near-next", "near-next2",
}

// String returns a short name for the source.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Selector is one memoized multiplexer selection: everything stage 0
// needs to launch the fetch of a block whose BIT/PHT information is not
// yet available.
type Selector struct {
	Source Source
	// Pos is the exit position (instruction address mod W) of the
	// block whose successor this selector predicts; it picks the
	// target-array slot and the near-block adder input.
	Pos uint8
	// NTCount and TakenBit are the GHR-update prediction: the number
	// of not-taken conditional branches in the predicted block,
	// followed by one taken bit (or fall-through).
	NTCount  uint8
	TakenBit bool
	// StartOff is the predicted starting offset within the target line
	// (only meaningful for near-block sources; §3.1 notes up to
	// log2(line) extra bits are needed for this).
	StartOff uint8
}

// Equal reports whether two selectors would drive the multiplexer (and
// GHR update) identically. A mismatch is a misselect (or GHR
// misprediction, which the engine distinguishes).
func (s Selector) Equal(o Selector) bool { return s == o }

// SameMux reports whether two selectors pick the same multiplexer input
// (ignoring the GHR-update fields). The engine uses this to separate
// misselect penalties from GHR penalties.
func (s Selector) SameMux(o Selector) bool {
	return s.Source == o.Source && s.Pos == o.Pos && s.StartOff == o.StartOff
}

// SameGHR reports whether two selectors predict the same GHR update.
func (s Selector) SameGHR(o Selector) bool {
	return s.NTCount == o.NTCount && s.TakenBit == o.TakenBit
}

// MaxBlocks is the largest number of blocks per cycle an entry can
// serve. The paper evaluates two; §5 notes the mechanism extends to
// more ("another block prediction basically requires another select
// table and target array"), which this implementation supports as an
// extension.
const MaxBlocks = 4

// Table is a set of select tables. Each table has 2^historyBits
// entries, indexed by GHR XOR block address (the PHT index); with
// multiple tables, the low bits of the block's starting address choose
// the table, helping distinguish entering positions (§4.3).
//
// Each entry's MaxBlocks selectors are stored as bit fields sized
// exactly by the construction geometry — source (3 bits), taken bit
// (1), position (log2 W), not-taken count (log2 W + 1, since up to W
// conditionals can fall through), and, with near-block prediction, a
// log2(line) starting offset — plus a 1-bit valid array. Single
// selection uses role 1 of an entry, double selection role 0 too, and
// the N-block extension roles 2 and 3 for the third and fourth blocks
// of a fetch group.
// Those ranges are invariants of the engine's scan (a block never holds
// more than W instructions), so the packing is lossless; Put panics if
// a selector ever falls outside them.
type Table struct {
	tables  int
	hBits   int
	idxMask uint32
	tblMask uint32

	// n * MaxBlocks selector fields and n valid bits.
	slots *packed.FieldArray
	valid *packed.FieldArray
	// Packed subfield geometry (see encode).
	posBits, ntBits, offBits uint

	blockWidth, lineSize int
	nearBlock            bool
}

// New creates numTables select tables of 2^historyBits entries each.
// numTables must be a power of two (the paper sweeps 1, 2, 4, 8).
// blockWidth, lineSize and nearBlock size the packed selector fields
// (and the paper cost formulas); they must match the fetch geometry the
// selectors will describe.
func New(historyBits, numTables, blockWidth, lineSize int, nearBlock bool) *Table {
	if historyBits < 1 || historyBits > 26 {
		panic("seltab: history bits out of range")
	}
	if numTables < 1 || numTables&(numTables-1) != 0 {
		panic("seltab: numTables must be a power of two")
	}
	if blockWidth < 1 || blockWidth > 64 {
		panic("seltab: block width out of range")
	}
	if lineSize < 1 || lineSize > 256 {
		panic("seltab: line size out of range")
	}
	n := numTables << historyBits
	t := &Table{
		tables:     numTables,
		hBits:      historyBits,
		idxMask:    uint32(1<<historyBits - 1),
		tblMask:    uint32(numTables - 1),
		blockWidth: blockWidth,
		lineSize:   lineSize,
		nearBlock:  nearBlock,
	}
	t.posBits = uint(log2(blockWidth))
	t.ntBits = uint(log2(blockWidth)) + 1
	if nearBlock {
		t.offBits = uint(log2(lineSize))
	}
	width := int(4 + t.posBits + t.ntBits + t.offBits)
	t.slots = packed.NewFieldArray(n*MaxBlocks, width)
	t.valid = packed.NewFieldArray(n, 1)
	return t
}

// Tables returns the number of select tables.
func (t *Table) Tables() int { return t.tables }

// EntriesPerTable returns 2^historyBits.
func (t *Table) EntriesPerTable() int { return 1 << t.hBits }

func (t *Table) index(history, blockAddr uint32) int {
	table := blockAddr & t.tblMask
	idx := (history ^ blockAddr) & t.idxMask
	return int(table)<<t.hBits | int(idx)
}

// Ref is a handle on one select-table entry.
type Ref struct {
	t *Table
	i int
}

// At returns the entry handle for (history, block address).
func (t *Table) At(history, blockAddr uint32) Ref {
	return Ref{t: t, i: t.index(history, blockAddr)}
}

// Valid reports whether the entry has ever been written.
func (r Ref) Valid() bool {
	return r.t.valid.Get(r.i) != 0
}

// Get returns the selector for the given role (0 = first block of a
// group, 1 = second, ...). Meaningful only when Valid.
func (r Ref) Get(role int) Selector {
	return r.t.decode(r.t.slots.Get(r.slot(role)))
}

// Set stores the selector for the role and marks the entry valid (the
// table's valid bit covers the whole entry, as in verifyST's original
// write-through semantics).
func (r Ref) Set(role int, s Selector) {
	r.t.slots.Set(r.slot(role), r.t.encode(s))
	r.t.valid.Set(r.i, 1)
}

func (r Ref) slot(role int) int {
	if role < 0 || role >= MaxBlocks {
		role = MaxBlocks - 1
	}
	return r.i*MaxBlocks + role
}

// encode packs a selector into one field:
// source(3) | taken(1) | pos(posBits) | nt(ntBits) | off(offBits).
// Values outside the geometry's ranges panic: they would alias another
// subfield, and the engine's scan invariants guarantee they never occur.
func (t *Table) encode(s Selector) uint64 {
	if s.Source >= numSources {
		panic("seltab: encode: unknown source")
	}
	if uint(s.Pos)>>t.posBits != 0 {
		panic(fmt.Sprintf("seltab: encode: Pos %d exceeds block width %d", s.Pos, t.blockWidth))
	}
	if uint(s.NTCount)>>t.ntBits != 0 {
		panic(fmt.Sprintf("seltab: encode: NTCount %d exceeds block width %d", s.NTCount, t.blockWidth))
	}
	if uint(s.StartOff)>>t.offBits != 0 {
		panic(fmt.Sprintf("seltab: encode: StartOff %d needs near-block offsets (line %d)", s.StartOff, t.lineSize))
	}
	v := uint64(s.Source)
	if s.TakenBit {
		v |= 1 << 3
	}
	v |= uint64(s.Pos) << 4
	v |= uint64(s.NTCount) << (4 + t.posBits)
	v |= uint64(s.StartOff) << (4 + t.posBits + t.ntBits)
	return v
}

func (t *Table) decode(v uint64) Selector {
	return Selector{
		Source:   Source(v & 7),
		TakenBit: v>>3&1 == 1,
		Pos:      uint8(v >> 4 & (1<<t.posBits - 1)),
		NTCount:  uint8(v >> (4 + t.posBits) & (1<<t.ntBits - 1)),
		StartOff: uint8(v >> (4 + t.posBits + t.ntBits) & (1<<t.offBits - 1)),
	}
}

// ValidCount returns the number of entries ever written.
func (t *Table) ValidCount() int {
	n := 0
	for i := 0; i < t.valid.Len(); i++ {
		if t.valid.Get(i) != 0 {
			n++
		}
	}
	return n
}

// SelectorBits returns the paper's per-selector encoding size: a
// combined source/position field (3 bits for W = 4, 4 bits for W = 8),
// log2(W) not-taken-count bits and one taken bit, plus log2(line)
// starting-offset bits when near-block prediction is enabled.
func SelectorBits(blockWidth, lineSize int, nearBlock bool) int {
	bits := log2(2*blockWidth) + log2(blockWidth) + 1
	if nearBlock {
		bits += log2(lineSize)
	}
	return bits
}

// CostBits returns the total storage cost in bits. Double selection
// stores two selectors per entry.
func (t *Table) CostBits(blockWidth, lineSize int, nearBlock, double bool) int {
	per := SelectorBits(blockWidth, lineSize, nearBlock)
	if double {
		per *= 2
	}
	return t.tables << t.hBits * per
}

// StateBits returns the paper's storage cost in bits at the table's
// construction geometry (Table 7's s * 2^k * SelectorBits closed form;
// double selection stores two selectors per entry). The physical packed
// layout allocates MaxBlocks uniform slots per entry for the §5 N-block
// extension, but the modeled hardware cost is the paper's.
func (t *Table) StateBits(double bool) int {
	return t.CostBits(t.blockWidth, t.lineSize, t.nearBlock, double)
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
