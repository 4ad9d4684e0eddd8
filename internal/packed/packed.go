// Package packed provides the bit-packed storage primitives behind the
// simulator's predictor state. The paper sizes every structure in bits
// — W 2-bit PHT counters per entry, 2/3-bit BIT codes per line
// position, log2-sized select-table fields (Tables 2-3, 7) — and these
// arrays store them at exactly that density, backed by []uint64 words.
// Two array types cover every structure:
//
//   - Counter2Array: 2-bit saturating counters, 32 per word, indexed by
//     shifts. A blocked PHT entry of width W <= 32 occupies 2W
//     consecutive bits of one word, so predicting a whole fetch block
//     touches one word (two for W = 64) instead of W byte slots, and
//     AgeHalve decays a whole table of TAGE useful counters word by
//     word.
//   - FieldArray: fixed-width fields of 1..32 bits, floor(64/width)
//     per word with no field straddling a word boundary: 2- or 3-bit
//     BIT type codes (32 or 21 per word), select-table selectors with
//     their entry's valid bit, and TAGE tags and 3-bit counters.
//
// Updates are single-load read-modify-writes: one word load, a shift
// and mask, one store. FieldArray locates element i at word
// i/perWord, slot i%perWord; perWord (21 for 3-bit fields, 64/width in
// general) is rarely a power of two, so both come from a Divisor's
// multiply-by-reciprocal rather than a hardware divide. The layout is
// the plain quotient/remainder one either way. Both arrays reset in
// place with word-level Fill, and report their logical size via
// StateBits (the paper's cost-model bits, excluding word-padding), so
// the hardware-cost tables can be printed from the live structures.
//
// The predictor tables embed these arrays by value rather than by
// pointer: a lane set revisits dozens of lanes' tables per block, and
// each pointer hop from a table to its array header is another cache
// line to miss before the backing word itself.
//
// These arrays are the only storage of predictor state. The wide-slice
// models the packed structures are checked against (one value per
// counter, code or selector) live in the _test.go files of pht,
// bitable and seltab, not in production code.
//
// Backing words are allocated cache-line padded: the []uint64 capacity
// is rounded up to a multiple of 8 words (64 bytes), which lands the
// allocation in a size class that is itself a multiple of 64 bytes, so
// distinct arrays never share a cache line. Without the padding, small
// arrays (a narrow PHT entry's word, a small lane's select table)
// from different lanes or pool jobs could be packed into adjacent
// heap slots of one span and false-share: a writer in one lane would
// bounce the line under every other lane's reader. The logical length
// is unchanged — Len, Words and the whole-word canonical forms the
// fuzzers compare are identical with or without the pad.
package packed

import "fmt"

// cacheLineWords is the pad quantum: 8 words = 64 bytes, one cache
// line on every target this runs on.
const cacheLineWords = 8

// alignedWords allocates n backing words with capacity rounded up to a
// whole number of cache lines, so separately allocated arrays never
// share a line (the Go allocator places size-class-multiple-of-64
// objects at 64-byte-aligned offsets).
func alignedWords(n int) []uint64 {
	if n == 0 {
		return nil
	}
	padded := (n + cacheLineWords - 1) &^ (cacheLineWords - 1)
	return make([]uint64, n, padded)
}

// checkIndexable panics unless every index of an n-element array fits
// the 32-bit numerators a Divisor maps to (word, slot) exactly.
func checkIndexable(fn string, n int) {
	if uint64(n) > maxIndexable {
		panic(fmt.Sprintf("packed: %s(%d): length exceeds %d", fn, n, uint64(maxIndexable)))
	}
}

// maxIndexable is the largest length whose indexes fit in 32 bits.
const maxIndexable = 1<<32 - 1

// Counter2Array is a dense array of 2-bit saturating counters
// (0 strongly not-taken .. 3 strongly taken), 32 per 64-bit word.
// Counter i lives at bits [2i mod 64, 2i mod 64 + 2) of word i/32, so
// consecutive counters are consecutive bits and an aligned run of W
// counters (a blocked-PHT entry, W a power of two <= 32) never
// straddles a word.
type Counter2Array struct {
	n     int
	words []uint64
}

// NewCounter2Array returns n counters all initialized to init (0..3).
func NewCounter2Array(n int, init uint8) *Counter2Array {
	if n < 0 {
		panic(fmt.Sprintf("packed: NewCounter2Array(%d): negative length", n))
	}
	if init > 3 {
		panic(fmt.Sprintf("packed: NewCounter2Array init %d out of range", init))
	}
	a := &Counter2Array{n: n, words: alignedWords((n + 31) / 32)}
	if init != 0 {
		a.Fill(init)
	}
	return a
}

// Fill sets every counter to v (0..3) with one store per backing word:
// v times a constant with one set bit per field replicates v into all
// 32 fields without carries. It restores a freshly built array in
// place and allocates nothing.
func (a *Counter2Array) Fill(v uint8) {
	if v > 3 {
		panic(fmt.Sprintf("packed: Counter2Array.Fill(%d): value out of range", v))
	}
	w := uint64(v) * ageHalveMask
	for i := range a.words {
		a.words[i] = w
	}
	a.clearTail()
}

// clearTail zeroes the padding bits past the last counter so that
// whole-word comparisons (tests, fuzzing) see a canonical form.
func (a *Counter2Array) clearTail() {
	if tail := a.n & 31; tail != 0 && len(a.words) > 0 {
		a.words[len(a.words)-1] &= 1<<(uint(tail)*2) - 1
	}
}

// Len returns the number of counters.
func (a *Counter2Array) Len() int { return a.n }

// Get returns counter i (0..3).
func (a *Counter2Array) Get(i int) uint8 {
	return uint8(a.words[i>>5] >> ((uint(i) & 31) * 2) & 3)
}

// Set stores v (0..3) into counter i.
func (a *Counter2Array) Set(i int, v uint8) {
	if v > 3 {
		panic(fmt.Sprintf("packed: Counter2Array.Set(%d, %d): value out of range", i, v))
	}
	sh := (uint(i) & 31) * 2
	w := &a.words[i>>5]
	*w = *w&^(3<<sh) | uint64(v)<<sh
}

// Update moves counter i one step toward the outcome, saturating at 0
// and 3 — a single-load read-modify-write: one word load, the
// saturating add on the extracted 2-bit field, one store.
func (a *Counter2Array) Update(i int, taken bool) {
	sh := (uint(i) & 31) * 2
	w := &a.words[i>>5]
	c := *w >> sh & 3
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	*w = *w&^(3<<sh) | c<<sh
}

// StateBits returns the logical storage size in bits (2 per counter,
// the paper's cost-model figure; word padding excluded).
func (a *Counter2Array) StateBits() int { return 2 * a.n }

// Words returns the number of backing 64-bit words actually allocated.
func (a *Counter2Array) Words() int { return len(a.words) }

// ageHalveMask selects the low bit of every 2-bit field in a word.
const ageHalveMask = 0x5555555555555555

// AgeHalve halves every counter in one pass (c -> c/2), one shift and
// mask per backing word — the word-level aging the TAGE useful-bit
// periodic reset uses: a whole table of 2-bit useful counters decays
// in entries/32 word operations instead of entries read-modify-writes.
// Tail padding stays zero, so canonical whole-word comparisons hold.
func (a *Counter2Array) AgeHalve() {
	for i := range a.words {
		a.words[i] = a.words[i] >> 1 & ageHalveMask
	}
}

// FieldArray is a dense array of fixed-width fields of 1..32 bits,
// floor(64/width) per word with no field straddling a word boundary:
// 32 two-bit or 21 three-bit fields (one pad bit) per word, 64/width
// in general. It stores every packed structure but the blocked PHT:
//
//   - BIT type codes, 2 or 3 bits each (paper Table 1: 2 bits without
//     near-block encoding, 3 with);
//   - select-table selectors, each one field sized by the paper's
//     Table 2 formula (log2-sized position, count and offset
//     subfields) with the entry's valid bit on top;
//   - the tagged-geometric predictor's partial tags and its 3-bit
//     saturating direction counters (Update).
type FieldArray struct {
	n     int
	width uint
	per   Divisor // fields per word: i/per is the word, i%per the slot
	mask  uint64
	words []uint64
}

// NewFieldArray returns n fields of the given width (1..32 bits), all
// zero.
func NewFieldArray(n, width int) *FieldArray {
	if n < 0 {
		panic(fmt.Sprintf("packed: NewFieldArray(%d, %d): negative length", n, width))
	}
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("packed: NewFieldArray: field width %d out of range [1,32]", width))
	}
	checkIndexable("NewFieldArray", n)
	perWord := 64 / width
	return &FieldArray{
		n:     n,
		width: uint(width),
		per:   NewDivisor(uint32(perWord)),
		mask:  1<<uint(width) - 1,
		words: alignedWords((n + perWord - 1) / perWord),
	}
}

// Len returns the number of fields.
func (a *FieldArray) Len() int { return a.n }

// Get returns field i.
func (a *FieldArray) Get(i int) uint64 {
	q, r := a.per.DivMod(uint32(i))
	return a.words[q] >> (uint(r) * a.width) & a.mask
}

// Set stores v into field i. v must fit the field width.
func (a *FieldArray) Set(i int, v uint64) {
	if v > a.mask {
		panic(fmt.Sprintf("packed: FieldArray.Set(%d, %#x): value exceeds %d bits", i, v, a.width))
	}
	q, r := a.per.DivMod(uint32(i))
	sh := uint(r) * a.width
	w := &a.words[q]
	*w = *w&^(a.mask<<sh) | v<<sh
}

// Update moves field i one step toward the outcome as a saturating
// counter: up to 2^width-1 when taken, down to 0 otherwise. It is a
// single-load read-modify-write like Counter2Array.Update.
func (a *FieldArray) Update(i int, taken bool) {
	q, r := a.per.DivMod(uint32(i))
	sh := uint(r) * a.width
	w := &a.words[q]
	c := *w >> sh & a.mask
	if taken {
		if c < a.mask {
			c++
		}
	} else if c > 0 {
		c--
	}
	*w = *w&^(a.mask<<sh) | c<<sh
}

// Fill sets every field to v with one store per backing word: v times
// a constant with the low bit of every slot set replicates v into all
// of a word's fields without carries. Pad bits and the slots past the
// last field stay zero, so a filled array is word for word the one
// built by setting each field. It restores a freshly built array in
// place and allocates nothing.
func (a *FieldArray) Fill(v uint64) {
	if v > a.mask {
		panic(fmt.Sprintf("packed: FieldArray.Fill(%#x): value exceeds %d bits", v, a.width))
	}
	w := v * (a.slots(0, a.per.D()) / a.mask)
	for i := range a.words {
		a.words[i] = w
	}
	if tail := uint32(a.n) % a.per.D(); tail != 0 {
		a.words[len(a.words)-1] &= a.slots(0, tail)
	}
}

// ClearRange zeroes fields lo..hi-1 word by word: the partial words at
// either end are masked, the whole words between them stored zero.
func (a *FieldArray) ClearRange(lo, hi int) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("packed: FieldArray.ClearRange(%d, %d) outside [0,%d]", lo, hi, a.n))
	}
	if lo == hi {
		return
	}
	qlo, rlo := a.per.DivMod(uint32(lo))
	qhi, rhi := a.per.DivMod(uint32(hi))
	if qlo == qhi {
		a.words[qlo] &^= a.slots(rlo, rhi)
		return
	}
	a.words[qlo] &^= a.slots(rlo, a.per.D())
	clear(a.words[qlo+1 : qhi])
	if rhi != 0 {
		a.words[qhi] &^= a.slots(0, rhi)
	}
}

// slots returns the bits of field slots r0..r1-1 of one word. A shift
// by 64 (a word holding 64/width fields of a width dividing 64) yields
// 0, so the mask is all ones.
func (a *FieldArray) slots(r0, r1 uint32) uint64 {
	return (1<<(uint(r1)*a.width) - 1) &^ (1<<(uint(r0)*a.width) - 1)
}

// StateBits returns the logical storage size in bits (width per field;
// pad bits excluded).
func (a *FieldArray) StateBits() int { return int(a.width) * a.n }

// Words returns the number of backing 64-bit words actually allocated.
func (a *FieldArray) Words() int { return len(a.words) }
