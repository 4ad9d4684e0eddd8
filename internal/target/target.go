// Package target implements the paper's target arrays (§2, §3.1,
// Table 5): the structures that supply the next fetch address when a
// block's predicted exit is a taken branch whose target is neither on
// the return address stack nor computable by the near-block adder.
//
// Two implementations satisfy Array:
//
//   - NLS: a Next-Line-Set–style tagless direct-mapped array. Indexed
//     by block address modulo the entry count, it holds one target per
//     instruction position of the block (W targets per entry) and
//     always "hits" — a cold or aliased slot simply predicts a stale
//     address, which the penalty model charges as a misfetch when it
//     is wrong. Dual- and N-block fetching duplicate the whole array
//     once per target number: array t is indexed by the block t
//     positions before the one being predicted (§3.1), so NewNLS takes
//     the group size and Lookup/Update take the target number.
//
//   - BTB: a tagged N-way set-associative buffer with LRU replacement
//     (Table 5's alternative). Entries are tagged by block address plus
//     a target-number tag, so one structure serves every target number
//     without duplication — a BTB block entry is therefore worth
//     roughly two NLS entries, which is the trade Table 5 measures. A
//     lookup misses on a tag mismatch or an unwritten position, and
//     the fetch logic falls back to a misfetch-and-recompute.
//
// Both arrays store a call bit alongside each target so the fetch
// logic can bypass to the return address stack for the block after a
// call (§3.2). With near-block encoding enabled (Config.NearBlock),
// conditional branches whose targets land within {-1, 0, +1, +2} lines
// of their own line are kept out of the array entirely — their targets
// come from the BIT code plus a small adder — which removes ~70% of
// conditional targets (Table 5). The BIT codes carry that encoding
// (bitable.Encode), and the engine reads them (Code.IsNear) to decide
// which exits consult a target array.
package target

// Array is a target array: a predictor of the address a block's taken
// exit transfers to, consulted with the same index arithmetic it is
// trained with.
//
// indexAddr/blockAddr is the starting address of the *indexing* block:
// the predicted block itself for target number 0, or the block
// targetNum positions earlier in the fetch group for the dual/N-block
// arrays (§3.1). pos is the exit instruction's position within its
// block (address modulo block width). Lookup returns the stored
// target, its call bit (for RAS bypassing), and whether the array hit;
// a tagless array always hits.
type Array interface {
	Lookup(indexAddr uint32, pos, targetNum int) (target uint32, callBit, hit bool)
	Update(blockAddr uint32, pos, targetNum int, next uint32, isCall bool)
	// StateBits returns the modeled storage cost in bits, with targets
	// stored as lineIndexBits-bit line indexes (Table 7's n; the paper
	// uses 10 for its 32 KByte cache). Tag and LRU bookkeeping is
	// excluded, matching the paper's e * W * n accounting.
	StateBits(lineIndexBits int) int
	// Reset forgets every stored target in place, as if freshly
	// built, allocating nothing.
	Reset()
}
