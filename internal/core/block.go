package core

import (
	"mbbp/internal/cpu"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
)

// block is one actual fetch block of the dynamic stream: a run of
// sequential instructions starting at Start, ended by the first of (a)
// the geometry's block limit, or (b) an actually redirecting control
// transfer (inclusive). Not-taken conditional branches do not end a
// block.
type block struct {
	start uint32
	insts []cpu.Retired // len 1..BlockWidth, backed by the reader's scratch
	next  uint32        // starting address of the following block
}

func (b *block) n() int { return len(b.insts) }

// exitIdx returns the index of the redirecting control transfer ending
// the block, or -1 when the block falls through (ended by the limit).
func (b *block) exitIdx() int {
	last := len(b.insts) - 1
	if b.insts[last].Taken {
		return last
	}
	return -1
}

// condOutcomes packs the block's conditional-branch outcomes
// oldest-first into (count, bits) form for GHR updates.
func (b *block) condOutcomes() (n int, bits uint32) {
	for _, r := range b.insts {
		if r.Class == isa.ClassCond {
			bits <<= 1
			if r.Taken {
				bits |= 1
			}
			n++
		}
	}
	return n, bits
}

// blockReader segments a retired-instruction stream into blocks under a
// cache geometry. It keeps one instruction of lookahead because a block
// boundary is only known once the next instruction's address is seen.
type blockReader struct {
	src     source
	geom    icache.Geometry
	blk     block // the block next returns; reused for every block
	scratch []cpu.Retired
	pending cpu.Retired
	have    bool
	done    bool
}

// source is the subset of trace.Source the reader needs (avoids an
// import cycle in tests that fake it).
type source interface {
	Next() (cpu.Retired, bool)
}

func newBlockReader(src source, geom icache.Geometry) *blockReader {
	return &blockReader{
		src:     src,
		geom:    geom,
		scratch: make([]cpu.Retired, 0, geom.BlockWidth),
	}
}

// next returns the next block, or ok=false at end of stream. The
// returned block is owned by the reader and only valid until the
// following call, so the block loop allocates nothing per block.
func (r *blockReader) next() (*block, bool) {
	if r.done {
		return nil, false
	}
	first := r.pending
	if !r.have {
		var ok bool
		first, ok = r.src.Next()
		if !ok {
			r.done = true
			return nil, false
		}
	}
	r.have = false

	b := &r.blk
	*b = block{start: first.PC, insts: r.scratch[:0]}
	limit := r.geom.BlockLimit(first.PC)
	cur := first
	for {
		b.insts = append(b.insts, cur)
		if cur.Taken {
			b.next = cur.Target
			return b, true
		}
		if len(b.insts) >= limit {
			b.next = b.start + uint32(len(b.insts))
			return b, true
		}
		nxt, ok := r.src.Next()
		if !ok {
			r.done = true
			b.next = b.start + uint32(len(b.insts))
			return b, true
		}
		if nxt.PC != cur.PC+1 {
			// Discontinuity without a redirecting record — should not
			// happen with a well-formed trace, but tolerate it by
			// ending the block here.
			r.pending, r.have = nxt, true
			b.next = nxt.PC
			return b, true
		}
		cur = nxt
	}
}
