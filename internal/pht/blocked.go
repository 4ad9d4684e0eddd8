package pht

import "mbbp/internal/packed"

// IndexMode selects how a two-level table combines history and address.
type IndexMode int

const (
	// IndexGShare XORs the global history with the block address
	// (McFarling [7], the paper's scheme for both the PHT and the
	// select table).
	IndexGShare IndexMode = iota
	// IndexGlobal uses the history alone (Yeh & Patt's GAg), provided
	// as an ablation.
	IndexGlobal
)

func (m IndexMode) String() string {
	if m == IndexGlobal {
		return "global"
	}
	return "gshare"
}

// Blocked is the paper's blocked pattern history table: each entry holds
// one 2-bit counter per instruction position of a fetch block, so a
// single lookup predicts every conditional branch in the block. Lookups
// are gshare-indexed by default (GHR XOR block starting address, the
// index the paper also reuses for the select table), and a branch at
// instruction address a uses counter position a mod W, which makes the
// counters wrap around the PHT block for the extended and self-aligned
// caches exactly as §4.5 requires.
//
// With numTables > 1 the structure becomes the paper's per-block
// variation of Yeh's per-addr scheme: the block address's low bits pick
// a table and the remaining bits participate in the index.
//
// Counters are stored bit-packed (two bits each, the paper's Table 7
// density: a W-wide entry is 2W consecutive bits, so one block lookup
// touches a single word for every paper width).
type Blocked struct {
	width    int
	tables   int
	tblMask  uint32
	tblShift uint
	hBits    int
	idxMask  uint32
	mode     IndexMode

	pk packed.Counter2Array // tables * entries * width counters, flat
}

// NewBlockedMulti creates numTables blocked PHTs (a power of two) of
// 2^historyBits entries of blockWidth counters each, all initialized
// weakly not-taken, under the given index mode. The paper's default is
// one gshare-indexed table ("one global blocked pattern history
// table").
func NewBlockedMulti(historyBits, blockWidth, numTables int, mode IndexMode) *Blocked {
	if historyBits < 1 || historyBits > 26 {
		panic("pht: history bits out of range")
	}
	if blockWidth < 1 || blockWidth > 64 {
		panic("pht: block width out of range")
	}
	if numTables < 1 || numTables&(numTables-1) != 0 {
		panic("pht: numTables must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < numTables {
		shift++
	}
	n := 1 << historyBits
	b := &Blocked{
		width:    blockWidth,
		tables:   numTables,
		tblMask:  uint32(numTables - 1),
		tblShift: shift,
		hBits:    historyBits,
		idxMask:  uint32(n - 1),
		mode:     mode,
		pk:       *packed.NewCounter2Array(numTables*n*blockWidth, 0),
	}
	b.Reset()
	return b
}

// Reset returns every counter to weakly not-taken in place, one store
// per backing word, as if freshly built. It allocates nothing.
func (b *Blocked) Reset() { b.pk.Fill(uint8(WeaklyNotTaken)) }

// Width returns the number of counters per entry.
func (b *Blocked) Width() int { return b.width }

// Entries returns the number of PHT entries across all tables.
func (b *Blocked) Entries() int { return b.tables << b.hBits }

// Index computes the entry index for a history value and block starting
// address.
func (b *Blocked) Index(history, blockAddr uint32) uint32 {
	table := blockAddr & b.tblMask
	var idx uint32
	switch b.mode {
	case IndexGlobal:
		idx = history & b.idxMask
	default:
		idx = (history ^ blockAddr>>b.tblShift) & b.idxMask
	}
	return table<<b.hBits | idx
}

// Entry is a handle on one blocked-PHT entry: the W counters predicting
// a fetch block. Reads and writes go straight to the table's storage —
// all W counters share one 64-bit word (two for W = 64), so a
// whole-block scan stays within a word instead of touching W slice
// elements.
type Entry struct {
	pk   *packed.Counter2Array
	base int // first counter offset
}

// At returns the live entry handle for an entry index.
func (b *Blocked) At(index uint32) Entry {
	return Entry{pk: &b.pk, base: int(index) * b.width}
}

// Counter returns the counter at a position within the entry.
func (e Entry) Counter(pos int) Counter { return Counter(e.pk.Get(e.base + pos)) }

// Taken returns the predicted direction of the counter at pos.
func (e Entry) Taken(pos int) bool { return e.Counter(pos).Taken() }

// SecondChance reports whether the counter at pos is in a strong state.
func (e Entry) SecondChance(pos int) bool { return e.Counter(pos).SecondChance() }

// Update trains the counter at pos toward the outcome (a single-load
// read-modify-write).
func (e Entry) Update(pos int, taken bool) { e.pk.Update(e.base+pos, taken) }

// CounterAt returns one counter of one entry (analysis and statistics
// use; the hot path holds an Entry instead).
func (b *Blocked) CounterAt(index uint32, pos int) Counter { return b.At(index).Counter(pos) }

// StateBits returns the storage cost in bits — the paper's Table 7
// closed form p * 2^k * 2W (the packed counters store exactly this
// many bits, modulo word padding).
func (b *Blocked) StateBits() int { return b.Entries() * b.width * 2 }
