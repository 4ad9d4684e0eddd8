package target

import (
	"fmt"

	"mbbp/internal/packed"
)

// NLS is the paper's default target array (§2): tagless, direct-mapped
// by block address, one slot per instruction position. For a group of
// N blocks per cycle it holds N identical-geometry arrays, one per
// target number; the duplication is inherent to §3.1's indexing (array
// t must be readable with the address of the block t positions back,
// in the same cycle as array 0).
//
// Being tagless, every lookup hits: a slot never written predicts
// address 0 and a different block aliased onto the same entry predicts
// that block's target. Both cases surface as ordinary misfetches when
// the prediction is wrong, exactly as in the hardware.
//
// Storage is split by what a lookup reads: the targets are one flat
// []uint32 (4 bytes a slot, every array back to back), and each slot's
// call bit lives at the same index of a parallel bitset, so a lane's
// target storage is half the size of a {target, call} struct slice.
type NLS struct {
	entries packed.Divisor // block entries per array: addr % entries
	width   packed.Divisor // position slots per entry: pos % width
	arrays  int
	targets []uint32 // [targetNum][entry][pos], flat
	calls   []uint64 // call bit of targets[i] at bit i%64 of word i/64
}

// NewNLS builds a tagless direct-mapped target array with the given
// number of block entries (a power of two in every paper
// configuration, though any positive count works), one slot per
// instruction position of a blockWidth-wide block, duplicated once per
// target number for a group of blocks fetched per cycle.
func NewNLS(entries, blockWidth, blocks int) *NLS {
	if entries < 1 || blockWidth < 1 || blocks < 1 {
		panic(fmt.Sprintf("target: NewNLS(%d, %d, %d): all arguments must be positive",
			entries, blockWidth, blocks))
	}
	if uint64(entries) > 1<<32-1 || uint64(blockWidth) > 1<<32-1 {
		panic(fmt.Sprintf("target: NewNLS(%d, %d, %d): entries and width must fit in 32 bits",
			entries, blockWidth, blocks))
	}
	slots := blocks * entries * blockWidth
	n := &NLS{
		entries: packed.NewDivisor(uint32(entries)),
		width:   packed.NewDivisor(uint32(blockWidth)),
		arrays:  blocks,
		targets: make([]uint32, slots),
		calls:   make([]uint64, (slots+63)/64),
	}
	n.Reset()
	return n
}

// Reset zeroes every slot's target and call bit in place, as if
// freshly built. It allocates nothing.
func (n *NLS) Reset() {
	clear(n.targets)
	clear(n.calls)
}

// Entries returns the number of block entries per array.
func (n *NLS) Entries() int { return int(n.entries.D()) }

// Width returns the number of position slots per entry.
func (n *NLS) Width() int { return int(n.width.D()) }

// slot returns the flat index of (indexing address, position) in array
// targetNum.
func (n *NLS) slot(addr uint32, pos, targetNum int) int {
	if uint(targetNum) >= uint(n.arrays) {
		panic(fmt.Sprintf("target: NLS target number %d out of range [0,%d)", targetNum, n.arrays))
	}
	entry := targetNum*n.Entries() + int(n.entries.Mod(addr))
	return entry*n.Width() + int(n.width.Mod(uint32(pos)))
}

// StateBits returns the Table 7 cost e * W * n summed over the group's
// duplicated arrays, with n = lineIndexBits per stored target.
func (n *NLS) StateBits(lineIndexBits int) int {
	return n.arrays * n.Entries() * n.Width() * lineIndexBits
}

// Lookup reads the slot for the indexing block address and exit
// position from array targetNum. A tagless array always hits; a cold
// slot returns target 0.
func (n *NLS) Lookup(indexAddr uint32, pos, targetNum int) (uint32, bool, bool) {
	i := n.slot(indexAddr, pos, targetNum)
	return n.targets[i], n.calls[i>>6]>>(uint(i)&63)&1 != 0, true
}

// Update stores the resolved target and call bit in array targetNum
// under the indexing block address and exit position.
func (n *NLS) Update(blockAddr uint32, pos, targetNum int, next uint32, isCall bool) {
	i := n.slot(blockAddr, pos, targetNum)
	n.targets[i] = next
	bit := uint64(1) << (uint(i) & 63)
	if isCall {
		n.calls[i>>6] |= bit
	} else {
		n.calls[i>>6] &^= bit
	}
}
