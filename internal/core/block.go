package core

import (
	"math/bits"

	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/packed"
	"mbbp/internal/trace"
)

// block is one actual fetch block of the dynamic stream: a run of
// sequential instructions starting at Start, ended by the first of (a)
// the geometry's block limit, or (b) an actually redirecting control
// transfer (inclusive). Not-taken conditional branches do not end a
// block.
//
// The reader derives every per-block value the lanes share in the same
// pass that finds the block's end, so the per-block loops downstream
// visit only the positions they need: the branch and cond masks name
// the control transfers and the conditional branches, and condN and
// condBits are the conditional outcomes the GHR shifts in.
type block struct {
	start uint32
	n     int    // instructions, 1..BlockWidth
	next  uint32 // starting address of the following block
	// exit is the index of the redirecting record ending the block, or
	// -1 when the block falls through (ended by the limit, the end of
	// the stream or a discontinuity).
	exit int
	// recs are the trace records stored for the block's instructions, a
	// window on the trace's run-length records read in place; kept has
	// bit j set when instruction j is one of them. Every other
	// instruction was folded into a run: plain, not taken, target 0.
	recs []trace.Packed
	kept uint64
	// pos0 is start mod W, the position (PHT counter, target slot) of
	// the first instruction. It is computed once when the block is
	// formed; later positions step from it with wrap-around at W.
	pos0 int
	// branch has bit j set when instruction j is a control transfer
	// (any class but plain), cond when it is a conditional branch. W is
	// at most maxBlockWidth (64), so one word holds every position.
	// Both are subsets of kept.
	branch, cond uint64
	// condN/condBits pack the conditional outcomes oldest-first (GHR
	// shift material): condN is the popcount of cond, and condBits is
	// 1 only when the block exits on a taken conditional, the one
	// conditional that can redirect.
	condN    int
	condBits uint32
}

// rec returns instruction j's record: its stored record, or the plain
// record a folded instruction expands to.
func (b *block) rec(j int) trace.Packed {
	if b.kept>>j&1 == 0 {
		return trace.PlainAt(b.start + uint32(j))
	}
	return b.recs[bits.OnesCount64(b.kept&(1<<j-1))]
}

// posOf returns the position of instruction j of the block (address
// mod w) without dividing: j < n <= w, so one wrap suffices.
func (b *block) posOf(j, w int) int {
	p := b.pos0 + j
	if p >= w {
		p -= w
	}
	return p
}

// blockReader segments a trace into blocks under a cache geometry. It
// walks the cursor's unread run-length records in place
// (trace.Buffer.Rest), loading one record per stored instruction and
// stepping over a run of plain ones at once, and moves the cursor past
// the block (Skip). Cancellation is polled between blocks: once the
// instructions consumed cross a multiple of trace.PollStride, the next
// block starts only if the trace's Err is nil.
type blockReader struct {
	src   *trace.Buffer
	geom  icache.Geometry
	width packed.Divisor // geom.BlockWidth, for block.pos0
	blk   block          // the block next returns; reused for every block
	read  uint64         // instructions in the blocks returned so far
	poll  uint64         // read count at which Err is next polled
}

func newBlockReader(src *trace.Buffer, geom icache.Geometry) *blockReader {
	return &blockReader{
		src:   src,
		geom:  geom,
		width: packed.NewDivisor(uint32(geom.BlockWidth)),
	}
}

// next returns the next block, or ok=false at end of stream. The
// returned block is owned by the reader and only valid until the
// following call, so the block loop allocates nothing per block.
func (r *blockReader) next() (*block, bool) {
	r.read += uint64(r.blk.n)
	if r.read >= r.poll {
		r.poll = r.read&^(trace.PollStride-1) + trace.PollStride
		if r.src.Err() != nil {
			return nil, false
		}
	}
	recs, off := r.src.Rest()
	if len(recs) == 0 {
		return nil, false
	}
	rec := recs[0]
	start := rec.PC() + uint32(off)
	limit := r.geom.BlockLimit(start)
	// Record i is the current one and off the offset of the next
	// instruction in its run; lo..hi are the records stored for the
	// block's instructions (a block starting inside a run does not hold
	// the record that run belongs to).
	lo := min(off, 1)
	i, hi := 0, lo
	var branch, cond, kept uint64
	var next uint32
	exit, n := -1, 0
	for {
		if off == 0 {
			// Branch-free: a record's class is data, so testing it
			// would mispredict on every block.
			c := rec.Class()
			kept |= 1 << (n & 63)
			branch |= b2u(c != isa.ClassPlain) << (n & 63)
			cond |= b2u(c == isa.ClassCond) << (n & 63)
			n, off, hi = n+1, 1, i+1
			if rec.Taken() {
				next, exit = rec.Target(), n-1
				break
			}
		}
		// The plain instructions folded after the record, up to the
		// limit.
		take := min(rec.Run()+1-off, limit-n)
		n, off = n+take, off+take
		if n == limit {
			next = start + uint32(n)
			break
		}
		if i++; i == len(recs) {
			// The end of the stream.
			next, off = start+uint32(n), 0
			break
		}
		rec, off = recs[i], 0
		if pc := rec.PC(); pc != start+uint32(n) {
			// Discontinuity without a redirecting record — should not
			// happen with a well-formed trace, but tolerate it by
			// ending the block here.
			next = pc
			break
		}
	}
	if i < len(recs) && off > recs[i].Run() {
		i, off = i+1, 0
	}
	// Field by field: a composite-literal store of the whole block
	// is built on the stack and block-copied.
	b := &r.blk
	b.start, b.n, b.next, b.exit, b.pos0 = start, n, next, exit, int(r.width.Mod(start))
	b.recs, b.kept = recs[lo:hi:hi], kept
	// A taken conditional redirects, so it can only be the block's last
	// instruction: every earlier conditional shifts in a 0.
	b.branch, b.cond, b.condN = branch, cond, bits.OnesCount64(cond)
	b.condBits = uint32(cond >> (n - 1) & b2u(exit >= 0))
	r.src.Skip(i, off)
	return b, true
}

// b2u is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
