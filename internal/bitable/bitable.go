// Package bitable implements the Block Instruction Type (BIT) table:
// per-line, per-position instruction type codes that tell the fetch
// control logic where a block's exit might be and which next-fetch
// source each position would select (paper Table 1).
//
// The 2-bit encoding distinguishes non-branch / return / other branch /
// conditional branch. The 3-bit encoding additionally classifies
// conditional branches with near-block targets (previous line, same
// line, next line, next line + 1), whose targets are computed with a
// small adder instead of being stored in the target array.
//
// Codes are stored bit-packed (internal/packed) at the paper's 2 or 3
// bits per instruction. The one-byte-per-code table it is checked
// against is a test oracle (oracle_test.go).
package bitable

import (
	"fmt"

	"mbbp/internal/isa"
	"mbbp/internal/packed"
)

// Code is a BIT type code. The values are the paper's Table 1 rows.
type Code uint8

const (
	// CodePlain marks a non-branch; prediction source: fall-through PC.
	CodePlain Code = 0 // 000
	// CodeReturn marks a return; prediction source: return stack.
	CodeReturn Code = 1 // 001
	// CodeOther marks unconditional jumps, calls, and indirect
	// transfers; prediction source: always the target array.
	CodeOther Code = 2 // 010
	// CodeCondLong marks a conditional branch with a long (non-near)
	// target; source: target array or fall-through, depending on PHT.
	CodeCondLong Code = 3 // 011
	// CodeCondPrev..CodeCondNext2 mark conditional branches whose
	// target lies in the previous line, the same line, the next line,
	// or the line after next; source: current line ± k * line size.
	CodeCondPrev  Code = 4 // 100
	CodeCondSame  Code = 5 // 101
	CodeCondNext  Code = 6 // 110
	CodeCondNext2 Code = 7 // 111
)

var codeNames = [8]string{
	"plain", "return", "other", "cond-long",
	"cond-prev", "cond-same", "cond-next", "cond-next2",
}

// String returns a short name for the code.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// IsNear reports whether the code is a near-block conditional branch.
func (c Code) IsNear() bool { return c >= CodeCondPrev }

// Encode computes the BIT code for an instruction. When nearBlock is
// false, all conditional branches encode as CodeCondLong (the 2-bit
// table). When true, a conditional branch whose target line is within
// {-1, 0, +1, +2} of its own line becomes the corresponding near code.
func Encode(class isa.Class, pc, target uint32, lineSize int, nearBlock bool) Code {
	switch class {
	case isa.ClassPlain:
		return CodePlain
	case isa.ClassReturn:
		return CodeReturn
	case isa.ClassCond:
		if nearBlock {
			delta := int64(target)/int64(lineSize) - int64(pc)/int64(lineSize)
			switch delta {
			case -1:
				return CodeCondPrev
			case 0:
				return CodeCondSame
			case 1:
				return CodeCondNext
			case 2:
				return CodeCondNext2
			}
		}
		return CodeCondLong
	default:
		return CodeOther
	}
}

// BitsPerInstruction returns the storage cost per instruction: 2 bits
// without near-block encoding, 3 with.
func BitsPerInstruction(nearBlock bool) int {
	if nearBlock {
		return 3
	}
	return 2
}

// invalidOwner marks an entry that has never been filled.
const invalidOwner = ^uint32(0)

// Table is a finite, direct-mapped, tagless BIT table: entry i holds the
// codes of whichever line filled it last. When a lookup hits an entry
// owned by a different line, the fetch logic predicts with the stale
// codes and pays the paper's one-cycle BIT penalty if that changed the
// prediction; the table itself just reports freshness.
//
// A Table with entries == 0 models BIT information stored in the
// instruction cache itself (always fresh — the paper's configuration for
// everything past Figure 7).
//
// Codes are stored bit-packed at the paper's density (2 bits per
// instruction, or 3 with near-block encoding — Table 1), so one line's
// worth of codes is one word load for every paper line size. Owner tags
// are bookkeeping, not modeled hardware state.
type Table struct {
	lineSize int
	bits     int
	owners   []uint32

	pk packed.FieldArray // entries * lineSize codes, flat
}

// New creates a table with the given number of line entries and code
// width (2-bit codes when nearBlock is false, 3-bit when true — Table
// 1). entries may be 0 for the perfect (in-cache) variant; otherwise it
// must be a power of two. Filling a near code into a 2-bit table
// panics; callers encode with the same nearBlock flag.
func New(entries, lineSize int, nearBlock bool) *Table {
	if lineSize < 1 {
		panic("bitable: line size must be positive")
	}
	t := &Table{lineSize: lineSize, bits: BitsPerInstruction(nearBlock)}
	if entries == 0 {
		return t
	}
	if entries < 0 || entries&(entries-1) != 0 {
		panic("bitable: entries must be a power of two (or zero)")
	}
	t.owners = make([]uint32, entries)
	t.pk = *packed.NewFieldArray(entries*lineSize, t.bits)
	t.Reset()
	return t
}

// Reset empties every entry in place — no owner, every code CodePlain
// — as if freshly built. It allocates nothing.
func (t *Table) Reset() {
	for i := range t.owners {
		t.owners[i] = invalidOwner
	}
	t.pk.ClearRange(0, t.pk.Len())
}

// Perfect reports whether the table models in-cache BIT storage.
func (t *Table) Perfect() bool { return t.owners == nil }

// Lookup copies the stored codes of positions off..off+len(dst)-1 of
// the line at lineAddr into dst and reports whether the entry belongs
// to that line. A never-filled entry reads as CodePlain and is not
// fresh; an entry owned by another line yields that line's codes, stale.
// Perfect tables report fresh and leave dst alone: the caller uses the
// true codes. The engine reads exactly the positions a block covers,
// one run per line it touches.
func (t *Table) Lookup(lineAddr uint32, off int, dst []Code) (fresh bool) {
	if t.Perfect() {
		return true
	}
	t.checkRun("Lookup", off, len(dst))
	i := int(lineAddr) & (len(t.owners) - 1)
	if t.owners[i] == invalidOwner {
		for j := range dst {
			dst[j] = CodePlain
		}
		return false
	}
	base := i*t.lineSize + off
	for j := range dst {
		dst[j] = Code(t.pk.Get(base + j))
	}
	return t.owners[i] == lineAddr
}

// Fill installs the decoded codes of positions off..off+len(codes)-1
// of the line at lineAddr (after the line has been fetched and
// decoded). When the entry already belongs to the line, the positions
// outside the run keep their codes; otherwise the entry is claimed for
// the line and every other position is cleared to CodePlain.
func (t *Table) Fill(lineAddr uint32, off int, codes []Code) {
	if t.Perfect() {
		return
	}
	t.checkRun("Fill", off, len(codes))
	i := int(lineAddr) & (len(t.owners) - 1)
	base := i * t.lineSize
	if t.owners[i] != lineAddr {
		// Evict: forget the old line entirely.
		t.pk.ClearRange(base, base+t.lineSize)
		t.owners[i] = lineAddr
	}
	for j, c := range codes {
		t.pk.Set(base+off+j, uint64(c))
	}
}

// checkRun panics unless positions off..off+n-1 lie within one line.
func (t *Table) checkRun(op string, off, n int) {
	if off < 0 || n < 0 || off+n > t.lineSize {
		panic(fmt.Sprintf("bitable: %s of positions [%d,%d) outside a %d-instruction line",
			op, off, off+n, t.lineSize))
	}
}

// StateBits returns the storage cost in bits at the table's constructed
// code width (Table 7: b * W(line) * bits per instruction; owner tags
// are bookkeeping, not modeled state).
func (t *Table) StateBits() int { return len(t.owners) * t.lineSize * t.bits }
