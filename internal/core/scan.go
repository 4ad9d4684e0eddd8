package core

import (
	"mbbp/internal/bitable"
	"mbbp/internal/seltab"
)

// scanResult is the output of the fetch control logic's scan of a
// block's BIT codes and PHT counters (§2): where the block is predicted
// to exit and the multiplexer selector for its successor.
type scanResult struct {
	exit int // predicted exit index within the block, -1 = no redirect found
	sel  seltab.Selector
}

// directionReader is the read-only slice of the Predictor contract the
// scan needs: the predicted direction per position of the latched
// block. pht.Entry satisfies it too, which lets unit tests drive the
// scan from a hand-built counter slice.
type directionReader interface {
	Taken(pos int) bool
}

// scan walks the block's positions using the type code slice and the
// direction predictions for the latched block, stopping at the first
// unconditional transfer or conditional branch predicted taken. codes
// holds the BIT code for each block-relative position (true codes, or
// stale table contents for the BIT-penalty check). dir is the direction
// source — normally the engine's predictor, already latched on this
// block. The result is written to out rather than returned: returned
// in registers, it was spilled by the caller with narrow stores and
// reloaded with one wide load, a store-forwarding stall on every
// block. Positions step from the block's first position with wrap-around at
// W, so the walk does no division.
func (e *Engine) scan(blk *block, codes []bitable.Code, dir directionReader, out *scanResult) {
	w := e.geom.BlockWidth
	lineMask := uint32(e.geom.LineSize - 1)
	var nt uint8
	for j, pos := 0, blk.pos0; j < blk.n; j, pos = j+1, pos+1 {
		if pos == w {
			pos = 0
		}
		code := codes[j]
		switch {
		case code == bitable.CodePlain:
			continue
		case code == bitable.CodeReturn:
			out.exit, out.sel = j, seltab.Selector{Source: seltab.SrcRAS, Pos: uint8(pos), NTCount: nt}
			return
		case code == bitable.CodeOther:
			out.exit, out.sel = j, seltab.Selector{Source: seltab.SrcTarget, Pos: uint8(pos), NTCount: nt}
			return
		default: // conditional branch variants
			if !dir.Taken(pos) {
				nt++
				continue
			}
			sel := seltab.Selector{Pos: uint8(pos), NTCount: nt, TakenBit: true}
			if code.IsNear() {
				sel.Source = nearSource(code)
				// The starting offset within the target line comes
				// from the branch's encoded offset; the true-code scan
				// knows it from the instruction itself.
				sel.StartOff = uint8(blk.rec(j).Target() & lineMask)
			} else {
				sel.Source = seltab.SrcTarget
			}
			out.exit, out.sel = j, sel
			return
		}
	}
	out.exit, out.sel = -1, seltab.Selector{Source: seltab.SrcFallThrough, NTCount: nt}
}

// nearSource maps a near-block BIT code to its adder input.
func nearSource(code bitable.Code) seltab.Source {
	switch code {
	case bitable.CodeCondPrev:
		return seltab.SrcNearPrev
	case bitable.CodeCondSame:
		return seltab.SrcNearSame
	case bitable.CodeCondNext:
		return seltab.SrcNearNext
	default:
		return seltab.SrcNearNext2
	}
}

// evaluate resolves a scan's selector to the concrete successor address,
// using the role the successor will be fetched in (the dual target array
// of §3.1 indexes the first target by the block's own address and the
// second target by its predecessor's address). ok is false when a
// tagged target array missed.
func (e *Engine) evaluate(blk *block, sc *scanResult, succRole int) (addr uint32, ok bool) {
	switch sc.sel.Source {
	case seltab.SrcFallThrough:
		return blk.start + uint32(blk.n), true
	case seltab.SrcRAS:
		return e.ras.Top(), true
	case seltab.SrcTarget:
		indexAddr, targetNum := blk.start, 0
		if succRole >= 1 && succRole <= e.ringLen {
			// Array number r is indexed by the block r-1 positions
			// before this one — the group's indexing block (§3.1).
			indexAddr, targetNum = e.addrRing[succRole-1], succRole
		}
		t, _, hit := e.tgt.Lookup(indexAddr, int(sc.sel.Pos), targetNum)
		return t, hit
	default: // near-block sources
		exitAddr := blk.start + uint32(sc.exit)
		lineStart := e.geom.LineStart(exitAddr)
		delta := int32(0)
		switch sc.sel.Source {
		case seltab.SrcNearPrev:
			delta = -1
		case seltab.SrcNearSame:
			delta = 0
		case seltab.SrcNearNext:
			delta = 1
		case seltab.SrcNearNext2:
			delta = 2
		}
		return uint32(int64(lineStart) + int64(delta)*int64(e.geom.LineSize) + int64(sc.sel.StartOff)), true
	}
}

// exitTaken is the direction source of the block's actual outcomes:
// it reports taken only at the position of the block's taken
// conditional exit, or nowhere (noExit). Scanning the block's true
// codes with it yields the "replacement selector" pre-computed into a
// bad branch recovery entry (Table 4) and written into the select
// table after a misprediction without a second chance. Every earlier
// conditional of a block is not taken and every unconditional transfer
// is taken, so the scan stops exactly where the block left. A one-byte
// value converts to the directionReader interface without allocating.
type exitTaken uint8

// noExit is above every position (W <= 64): no conditional is taken.
const noExit exitTaken = 0xff

func (x exitTaken) Taken(pos int) bool { return pos == int(x) }

// outcomes returns the actual-direction source of blk.
func (e *Engine) outcomes(blk *block) exitTaken {
	if blk.condBits == 0 {
		return noExit
	}
	return exitTaken(blk.posOf(blk.n-1, e.geom.BlockWidth))
}
