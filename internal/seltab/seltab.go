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

// Raw is a selector in its table's packed field encoding (see Encode).
// Raw values of one table compare field by field with masks: the
// engine encodes the scanned selector once per block and checks it
// against the stored field with Table.SameMux/SameGHR without decoding
// either side.
type Raw uint64

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
// An entry holds one selector per role the fetch group uses, and only
// those: single selection stores role 1 (the second block of a dual
// group), double selection roles 0 and 1, and the N-block extension
// roles 1..N-1 (0..N-1 with double selection) for the third and fourth
// blocks of a group. Each selector is one bit field sized exactly by
// the construction geometry — source (3 bits), taken bit (1), position
// (log2 W), not-taken count (log2 W + 1, since up to W conditionals
// can fall through), and, with near-block prediction, a log2(line)
// starting offset — plus the entry's valid bit, kept as the top bit of
// every one of its role fields, so one field load answers both "is the
// entry valid" and "what does this role hold". Those ranges are
// invariants of the engine's scan (a block never holds more than W
// instructions), so the packing is lossless; Encode panics if a
// selector ever falls outside them, and every access to a role the
// table has no slot for panics.
type Table struct {
	tables  int
	hBits   int
	idxMask uint32
	tblMask uint32

	// firstRole is the lowest role stored; an entry's roles
	// firstRole..firstRole+roles-1 occupy consecutive slots.
	firstRole, roles int
	double           bool

	// n * roles fields: a selector (see Encode) below validBit.
	slots packed.FieldArray
	// Packed subfield geometry (see Encode), the masks selecting the
	// multiplexer fields (source, position, start offset) and the
	// GHR-update fields (taken bit, not-taken count) of a Raw, and the
	// stored fields' valid bit just above the selector.
	posBits, ntBits, offBits   uint
	muxMask, ghrMask, validBit Raw

	blockWidth, lineSize int
	nearBlock            bool
}

// New creates numTables select tables of 2^historyBits entries each
// for fetch groups of blocks blocks (2..MaxBlocks) under single or,
// with double, double selection; together they fix the roles an entry
// stores. numTables must be a power of two (the paper sweeps 1, 2, 4,
// 8). blockWidth, lineSize and nearBlock size the packed selector
// fields (and the paper cost formulas); they must match the fetch
// geometry the selectors will describe.
func New(historyBits, numTables, blockWidth, lineSize int, nearBlock bool, blocks int, double bool) *Table {
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
	if blocks < 2 || blocks > MaxBlocks {
		panic(fmt.Sprintf("seltab: %d blocks per group out of range [2,%d]", blocks, MaxBlocks))
	}
	n := numTables << historyBits
	t := &Table{
		tables:     numTables,
		hBits:      historyBits,
		idxMask:    uint32(1<<historyBits - 1),
		tblMask:    uint32(numTables - 1),
		firstRole:  1,
		double:     double,
		blockWidth: blockWidth,
		lineSize:   lineSize,
		nearBlock:  nearBlock,
	}
	if double {
		t.firstRole = 0
	}
	t.roles = blocks - t.firstRole
	t.posBits = uint(log2(blockWidth))
	t.ntBits = uint(log2(blockWidth)) + 1
	if nearBlock {
		t.offBits = uint(log2(lineSize))
	}
	posShift, ntShift := 4, 4+t.posBits
	offShift := ntShift + t.ntBits
	t.muxMask = 7 | (1<<t.posBits-1)<<posShift | (1<<t.offBits-1)<<offShift
	t.ghrMask = 1<<3 | (1<<t.ntBits-1)<<ntShift
	t.validBit = 1 << (offShift + t.offBits)
	t.slots = *packed.NewFieldArray(n*t.roles, int(offShift+t.offBits)+1)
	t.Reset()
	return t
}

// Reset invalidates every entry in place, one store per backing word,
// as if freshly built. It allocates nothing.
func (t *Table) Reset() { t.slots.Fill(0) }

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

// Load returns the role's stored selector in packed form and whether
// the entry is valid, from one field read.
func (r Ref) Load(role int) (Raw, bool) {
	v := Raw(r.t.slots.Get(r.slot(role)))
	return v &^ r.t.validBit, v&r.t.validBit != 0
}

// SetRaw stores a packed selector of this table (from Encode) for the
// role and marks the entry valid: the role's field gets the selector
// and the valid bit, and the entry's other role fields get the valid
// bit.
func (r Ref) SetRaw(role int, v Raw) {
	k := r.slot(role)
	r.t.slots.Set(k, uint64(v|r.t.validBit))
	for j := r.i * r.t.roles; j < (r.i+1)*r.t.roles; j++ {
		if j != k {
			r.t.slots.Set(j, r.t.slots.Get(j)|uint64(r.t.validBit))
		}
	}
}

// slot returns the role's field index. A role the table stores no
// selector for panics: clamping it would silently read and write
// another role's selector.
func (r Ref) slot(role int) int {
	k := role - r.t.firstRole
	if uint(k) >= uint(r.t.roles) {
		panic(fmt.Sprintf("seltab: role %d out of range [%d,%d]",
			role, r.t.firstRole, r.t.firstRole+r.t.roles-1))
	}
	return r.i*r.t.roles + k
}

// Encode packs a selector into one field:
// source(3) | taken(1) | pos(posBits) | nt(ntBits) | off(offBits).
// Values outside the geometry's ranges panic: they would alias another
// subfield, and the engine's scan invariants guarantee they never occur.
func (t *Table) Encode(s Selector) Raw {
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
	v := Raw(s.Source)
	if s.TakenBit {
		v |= 1 << 3
	}
	v |= Raw(s.Pos) << 4
	v |= Raw(s.NTCount) << (4 + t.posBits)
	v |= Raw(s.StartOff) << (4 + t.posBits + t.ntBits)
	return v
}

// SameMux reports whether two packed selectors of this table pick the
// same multiplexer input: the source, position and start-offset fields
// agree (the GHR-update fields are ignored). The engine uses this to
// separate misselect penalties from GHR penalties.
func (t *Table) SameMux(a, b Raw) bool { return (a^b)&t.muxMask == 0 }

// SameGHR reports whether two packed selectors of this table predict
// the same GHR update: the taken bit and not-taken count agree.
func (t *Table) SameGHR(a, b Raw) bool { return (a^b)&t.ghrMask == 0 }

// ValidCount returns the number of entries ever written.
func (t *Table) ValidCount() int {
	n := 0
	for i := 0; i < t.slots.Len(); i += t.roles {
		if Raw(t.slots.Get(i))&t.validBit != 0 {
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

// StateBits returns the paper's storage cost in bits at the table's
// construction geometry and selection (Table 7's s * 2^k *
// SelectorBits closed form; double selection stores two selectors per
// entry). The packed layout stores one slot per role the group uses,
// so the N-block extension's extra roles are physical slots the
// modeled hardware cost does not count: the cost stays the paper's.
func (t *Table) StateBits() int {
	per := SelectorBits(t.blockWidth, t.lineSize, t.nearBlock)
	if t.double {
		per *= 2
	}
	return t.tables << t.hBits * per
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
