package target

import (
	"fmt"

	"mbbp/internal/packed"
)

// btbEntry is one way of a BTB set: a block entry tagged by the full
// indexing block address plus the target number, holding a target and
// call bit per instruction position. Positions are filled as exits
// resolve; an unwritten position misses even under a tag match.
type btbEntry struct {
	valid     bool
	tag       uint32 // indexing block address
	targetNum int    // the §3.1 target-number tag
	slots     []btbSlot
}

// btbSlot is one position of a BTB entry: the stored target, its call
// bit, and whether the position has been written since the entry was
// allocated.
type btbSlot struct {
	target  uint32
	call    bool
	written bool
}

// BTB is the tagged alternative of Table 5: an N-way set-associative
// buffer with LRU replacement. The tag carries the block address and
// the target number, so — unlike the NLS — one structure serves every
// target number of a multi-block group without duplication, at the
// price of tag storage and genuine misses. A miss (wrong tag, or a
// position never written) makes the fetch logic fall back to
// misfetch-and-recompute rather than predicting a stale address.
type BTB struct {
	sets  packed.Divisor // addr % sets picks the set
	assoc int
	width packed.Divisor // pos % width picks the slot
	ways  [][]btbEntry   // [set][way], most recently used first
	slots []btbSlot      // every way's slots; LRU moves ways, not slots
}

// NewBTB builds an N-way tagged LRU target buffer with the given total
// number of block entries split into entries/assoc sets of assoc ways,
// each entry holding one slot per position of a blockWidth-wide block.
// entries must be a positive multiple of assoc (the paper uses 4-way,
// 8-64 entries).
func NewBTB(entries, blockWidth, assoc int) *BTB {
	if entries < 1 || blockWidth < 1 || assoc < 1 || entries%assoc != 0 {
		panic(fmt.Sprintf("target: NewBTB(%d, %d, %d): entries must be a positive multiple of assoc",
			entries, blockWidth, assoc))
	}
	if uint64(entries) > 1<<32-1 || uint64(blockWidth) > 1<<32-1 {
		panic(fmt.Sprintf("target: NewBTB(%d, %d, %d): entries and width must fit in 32 bits",
			entries, blockWidth, assoc))
	}
	b := &BTB{
		sets:  packed.NewDivisor(uint32(entries / assoc)),
		assoc: assoc,
		width: packed.NewDivisor(uint32(blockWidth)),
	}
	b.ways = make([][]btbEntry, entries/assoc)
	b.slots = make([]btbSlot, entries*blockWidth)
	for s := range b.ways {
		b.ways[s] = make([]btbEntry, assoc)
		for w := range b.ways[s] {
			k := (s*assoc + w) * blockWidth
			b.ways[s][w].slots = b.slots[k : k+blockWidth]
		}
	}
	b.Reset()
	return b
}

// Reset invalidates every way and clears every slot in place, as if
// freshly built. It allocates nothing.
func (b *BTB) Reset() {
	for _, set := range b.ways {
		for w := range set {
			set[w] = btbEntry{slots: set[w].slots}
		}
	}
	clear(b.slots)
}

// Entries returns the total number of block entries.
func (b *BTB) Entries() int { return b.Sets() * b.assoc }

// Sets returns the number of sets.
func (b *BTB) Sets() int { return int(b.sets.D()) }

// Width returns the number of position slots per entry.
func (b *BTB) Width() int { return int(b.width.D()) }

func (b *BTB) set(addr uint32) []btbEntry {
	return b.ways[b.sets.Mod(addr)]
}

// promote moves way w of set to the most-recently-used position.
func promote(set []btbEntry, w int) {
	e := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = e
}

// StateBits returns the target storage cost entries * W * n (one
// structure serves every target number; tags and LRU state excluded,
// as in the paper's accounting).
func (b *BTB) StateBits(lineIndexBits int) int {
	return b.Entries() * b.Width() * lineIndexBits
}

// Lookup searches the set indexed by the block address for an entry
// tagged with that address and target number. A hit returns the
// position's target and call bit and refreshes the entry's LRU
// standing; a tag mismatch or an unwritten position is a miss.
func (b *BTB) Lookup(indexAddr uint32, pos, targetNum int) (uint32, bool, bool) {
	set := b.set(indexAddr)
	pos = int(b.width.Mod(uint32(pos)))
	for w := range set {
		e := &set[w]
		if !e.valid || e.tag != indexAddr || e.targetNum != targetNum {
			continue
		}
		s := e.slots[pos]
		if !s.written {
			return 0, false, false
		}
		promote(set, w)
		return s.target, s.call, true
	}
	return 0, false, false
}

// Update stores the resolved target and call bit under (blockAddr,
// targetNum), allocating — and evicting the least recently used way —
// on a tag miss. The touched entry becomes most recently used.
func (b *BTB) Update(blockAddr uint32, pos, targetNum int, next uint32, isCall bool) {
	set := b.set(blockAddr)
	pos = int(b.width.Mod(uint32(pos)))
	w := -1
	for i := range set {
		if set[i].valid && set[i].tag == blockAddr && set[i].targetNum == targetNum {
			w = i
			break
		}
	}
	if w < 0 {
		// Allocate in the least recently used way (an invalid way is by
		// construction at or past every valid one, since allocation
		// promotes).
		w = len(set) - 1
		e := &set[w]
		e.valid = true
		e.tag = blockAddr
		e.targetNum = targetNum
		clear(e.slots)
	}
	e := &set[w]
	e.slots[pos] = btbSlot{target: next, call: isCall, written: true}
	promote(set, w)
}
