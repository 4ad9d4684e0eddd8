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
	// insts is the block's records in place: a window on the trace's
	// packed records (len 1..BlockWidth), read through the Packed
	// accessors and valid while the trace is.
	insts []trace.Packed
	next  uint32 // starting address of the following block
	// pos0 is start mod W, the position (PHT counter, target slot) of
	// the first instruction. It is computed once when the block is
	// formed; later positions step from it with wrap-around at W.
	pos0 int
	// branch has bit j set when instruction j is a control transfer
	// (any class but plain), cond when it is a conditional branch. W is
	// at most maxBlockWidth (64), so one word holds every position.
	branch, cond uint64
	// condN/condBits pack the conditional outcomes oldest-first (GHR
	// shift material): condN is the popcount of cond, and condBits is
	// 1 only when the block exits on a taken conditional, the one
	// conditional that can redirect.
	condN    int
	condBits uint32
}

func (b *block) n() int { return len(b.insts) }

// posOf returns the position of instruction j of the block (address
// mod w) without dividing: j < len(insts) <= w, so one wrap suffices.
func (b *block) posOf(j, w int) int {
	p := b.pos0 + j
	if p >= w {
		p -= w
	}
	return p
}

// exitIdx returns the index of the redirecting control transfer ending
// the block, or -1 when the block falls through (ended by the limit).
func (b *block) exitIdx() int {
	last := len(b.insts) - 1
	if b.insts[last].Taken() {
		return last
	}
	return -1
}

// blockReader segments a trace into blocks under a cache geometry. It
// scans the cursor's unread records in place (trace.Buffer.Rest),
// finding the block's end with one load per record, and advances the
// cursor past the block (Skip). Cancellation is polled between blocks:
// once the records consumed cross a multiple of trace.PollStride, the
// next block starts only if the trace's Err is nil.
type blockReader struct {
	src   *trace.Buffer
	geom  icache.Geometry
	width packed.Divisor // geom.BlockWidth, for block.pos0
	blk   block          // the block next returns; reused for every block
	read  uint64         // records in the blocks returned so far
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
	r.read += uint64(len(r.blk.insts))
	if r.read >= r.poll {
		r.poll = r.read&^(trace.PollStride-1) + trace.PollStride
		if r.src.Err() != nil {
			return nil, false
		}
	}
	rest := r.src.Rest()
	if len(rest) == 0 {
		return nil, false
	}
	start := rest[0].PC()
	rest = rest[:min(r.geom.BlockLimit(start), len(rest))]
	var branch, cond uint64
	var next uint32
	n := 0
	for {
		rec := rest[n]
		// Branch-free: a record's class is data, so testing it would
		// mispredict on every block.
		c := rec.Class()
		branch |= b2u(c != isa.ClassPlain) << (n & 63)
		cond |= b2u(c == isa.ClassCond) << (n & 63)
		n++
		if rec.Taken() {
			next = rec.Target()
			break
		}
		if n == len(rest) {
			// The geometry's limit or the end of the stream.
			next = start + uint32(n)
			break
		}
		if pc := rest[n].PC(); pc != start+uint32(n) {
			// Discontinuity without a redirecting record — should not
			// happen with a well-formed trace, but tolerate it by
			// ending the block here.
			next = pc
			break
		}
	}
	// Field by field: a composite-literal store of the whole block
	// is built on the stack and block-copied.
	b := &r.blk
	b.start, b.insts, b.next, b.pos0 = start, rest[:n:n], next, int(r.width.Mod(start))
	// A taken conditional redirects, so it can only be the block's last
	// record: every earlier conditional shifts in a 0.
	b.branch, b.cond, b.condN = branch, cond, bits.OnesCount64(cond)
	b.condBits = uint32(cond >> (n - 1) & b2u(rest[n-1].Taken()))
	r.src.Skip(n)
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
