package core

import (
	"testing"

	"mbbp/internal/cpu"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/trace"
)

// mkTrace builds a buffer from (pc, class, taken, target) tuples.
type rec struct {
	pc     uint32
	class  isa.Class
	taken  bool
	target uint32
}

func mkTrace(recs []rec) *trace.Buffer {
	b := trace.NewBuffer("synthetic", len(recs))
	for _, r := range recs {
		b.Append(cpu.Retired{PC: r.pc, Class: r.class, Taken: r.taken, Target: r.target})
	}
	return b
}

func readBlocks(t *testing.T, src trace.Source, geom icache.Geometry) []block {
	t.Helper()
	src.Reset()
	rd := newBlockReader(src, geom)
	var out []block
	for {
		b, ok := rd.next()
		if !ok {
			return out
		}
		// Deep-copy: the reader reuses its scratch.
		cp := *b
		cp.insts = append([]cpu.Retired(nil), b.insts...)
		out = append(out, cp)
	}
}

func TestBlockEndsAtTakenTransfer(t *testing.T) {
	geom := icache.ForKind(icache.Normal, 8)
	tr := mkTrace([]rec{
		{0, isa.ClassPlain, false, 0},
		{1, isa.ClassPlain, false, 0},
		{2, isa.ClassJump, true, 20},
		{20, isa.ClassPlain, false, 0},
	})
	blocks := readBlocks(t, tr, geom)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	b := blocks[0]
	if b.start != 0 || b.n() != 3 || b.exitIdx() != 2 || b.next != 20 {
		t.Errorf("block 0 = start%d n%d exit%d next%d", b.start, b.n(), b.exitIdx(), b.next)
	}
	if blocks[1].start != 20 {
		t.Errorf("block 1 starts at %d", blocks[1].start)
	}
}

func TestNotTakenCondDoesNotEndBlock(t *testing.T) {
	geom := icache.ForKind(icache.Normal, 8)
	tr := mkTrace([]rec{
		{0, isa.ClassCond, false, 50}, // not taken: block continues
		{1, isa.ClassCond, false, 50},
		{2, isa.ClassCond, true, 50}, // taken: block ends
	})
	blocks := readBlocks(t, tr, geom)
	if len(blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	if b.n() != 3 || b.exitIdx() != 2 || b.next != 50 {
		t.Errorf("block = n%d exit%d next%d", b.n(), b.exitIdx(), b.next)
	}
	n, bits := b.condOutcomes()
	if n != 3 || bits != 0b001 {
		t.Errorf("cond outcomes = %d, %03b; want 3, 001", n, bits)
	}
}

func TestBlockTruncatedByLineBoundary(t *testing.T) {
	geom := icache.ForKind(icache.Normal, 8)
	var rs []rec
	for pc := uint32(5); pc < 13; pc++ { // crosses the line at 8
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0].n() != 3 || blocks[0].next != 8 || blocks[0].exitIdx() != -1 {
		t.Errorf("block 0 = n%d next%d exit%d; want 3, 8, -1",
			blocks[0].n(), blocks[0].next, blocks[0].exitIdx())
	}
	if blocks[1].start != 8 || blocks[1].n() != 5 {
		t.Errorf("block 1 = start%d n%d", blocks[1].start, blocks[1].n())
	}
}

func TestSelfAlignedIgnoresLineBoundary(t *testing.T) {
	geom := icache.ForKind(icache.SelfAligned, 8)
	var rs []rec
	for pc := uint32(5); pc < 14; pc++ {
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	if blocks[0].n() != 8 {
		t.Errorf("self-aligned block = %d instructions, want 8", blocks[0].n())
	}
}

func TestExtendedLineTruncatesLess(t *testing.T) {
	geom := icache.ForKind(icache.Extended, 8)
	var rs []rec
	for pc := uint32(5); pc < 20; pc++ {
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	// Start 5 in a 16-wide line: full 8 fit (5..12).
	if blocks[0].n() != 8 {
		t.Errorf("extended block 0 = %d instructions, want 8", blocks[0].n())
	}
	// Next starts at 13: only 3 until the line ends at 16.
	if blocks[1].start != 13 || blocks[1].n() != 3 {
		t.Errorf("extended block 1 = start%d n%d, want 13, 3", blocks[1].start, blocks[1].n())
	}
}

func TestBlockWidthCap(t *testing.T) {
	geom := icache.Geometry{Kind: icache.Normal, BlockWidth: 4, LineSize: 8, Banks: 8}
	var rs []rec
	for pc := uint32(0); pc < 8; pc++ {
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	if len(blocks) != 2 || blocks[0].n() != 4 || blocks[1].n() != 4 {
		t.Errorf("W=4 segmentation wrong: %d blocks", len(blocks))
	}
}

func TestStreamEndMidBlock(t *testing.T) {
	geom := icache.ForKind(icache.Normal, 8)
	tr := mkTrace([]rec{
		{0, isa.ClassPlain, false, 0},
		{1, isa.ClassPlain, false, 0},
	})
	blocks := readBlocks(t, tr, geom)
	if len(blocks) != 1 || blocks[0].n() != 2 {
		t.Fatalf("partial final block mishandled: %+v", blocks)
	}
}
