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
	b := trace.NewBuffer("synthetic")
	for _, r := range recs {
		b.Append(cpu.Retired{PC: r.pc, Class: r.class, Taken: r.taken, Target: r.target})
	}
	return b
}

// readBlocks segments src through the production reader. The blocks'
// record windows alias src's records, which never change, so a shallow
// copy of each block outlives the reader's reuse of its block.
func readBlocks(tb testing.TB, src *trace.Buffer, geom icache.Geometry) []block {
	tb.Helper()
	src.Reset()
	rd := newBlockReader(src, geom)
	var out []block
	for {
		b, ok := rd.next()
		if !ok {
			return out
		}
		out = append(out, *b)
	}
}

// formBlock is the one way tests build a block: it forms recs through
// the production reader under geom and fails unless they make exactly
// one block, so a fixture carries every value the reader derives (masks,
// conditional outcomes, first position) just as the engine sees it.
func formBlock(tb testing.TB, geom icache.Geometry, recs ...cpu.Retired) *block {
	tb.Helper()
	src := trace.NewBuffer("fixture")
	for _, r := range recs {
		src.Append(r)
	}
	blocks := readBlocks(tb, src, geom)
	if len(blocks) != 1 {
		tb.Fatalf("fixture of %d records forms %d blocks, want 1", len(recs), len(blocks))
	}
	return &blocks[0]
}

// refBlock is one block as the reference segmentation forms it.
type refBlock struct {
	start, next  uint32
	pos0         int
	insts        []cpu.Retired
	branch, cond uint64
	condN        int
	condBits     uint32
}

// refSegment is the reference block formation: the record-at-a-time
// segmentation over Buffer.Next, with one record of lookahead, that the
// reader replaced. It keeps its own copy of each block's records and
// derives the masks and conditional outcomes from them in a second
// pass, so FuzzBlockFormation checks the one-pass reader against an
// independent statement of the rule.
func refSegment(src *trace.Buffer, geom icache.Geometry) []refBlock {
	src.Reset()
	var out []refBlock
	var pending cpu.Retired
	have := false
	for {
		first := pending
		if !have {
			var ok bool
			if first, ok = src.Next(); !ok {
				return out
			}
		}
		have = false
		b := refBlock{start: first.PC, pos0: int(first.PC % uint32(geom.BlockWidth))}
		limit := geom.BlockLimit(first.PC)
		done := false
		for cur := first; ; {
			b.insts = append(b.insts, cur)
			if cur.Taken {
				b.next = cur.Target
				break
			}
			if len(b.insts) >= limit {
				b.next = b.start + uint32(len(b.insts))
				break
			}
			nxt, ok := src.Next()
			if !ok {
				done = true
				b.next = b.start + uint32(len(b.insts))
				break
			}
			if nxt.PC != cur.PC+1 {
				pending, have = nxt, true
				b.next = nxt.PC
				break
			}
			cur = nxt
		}
		for j, r := range b.insts {
			if r.Class != isa.ClassPlain {
				b.branch |= 1 << j
			}
			if r.Class == isa.ClassCond {
				b.cond |= 1 << j
				b.condBits <<= 1
				if r.Taken {
					b.condBits |= 1
				}
				b.condN++
			}
		}
		out = append(out, b)
		if done {
			return out
		}
	}
}

// exitIdx is the reference exit: the last record when it redirected.
func (b *refBlock) exitIdx() int {
	if last := len(b.insts) - 1; b.insts[last].Taken {
		return last
	}
	return -1
}

// checkFormation compares every field of every block the production
// reader forms from src, and the record it gives for every position,
// against the reference segmentation.
func checkFormation(t *testing.T, src *trace.Buffer, geom icache.Geometry) {
	t.Helper()
	want := refSegment(src, geom)
	got := readBlocks(t, src, geom)
	if len(got) != len(want) {
		t.Fatalf("%+v: reader forms %d blocks, reference %d", geom, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.start != w.start || g.n != len(w.insts) || g.next != w.next ||
			g.pos0 != w.pos0 || g.exit != w.exitIdx() ||
			g.branch != w.branch || g.cond != w.cond ||
			g.condN != w.condN || g.condBits != w.condBits {
			t.Fatalf("%+v block %d:\n reader    start %d n %d next %d pos0 %d exit %d branch %b cond %b condN %d condBits %b\n reference start %d n %d next %d pos0 %d exit %d branch %b cond %b condN %d condBits %b",
				geom, i,
				g.start, g.n, g.next, g.pos0, g.exit, g.branch, g.cond, g.condN, g.condBits,
				w.start, len(w.insts), w.next, w.pos0, w.exitIdx(), w.branch, w.cond, w.condN, w.condBits)
		}
		for j, r := range w.insts {
			if u := trace.Unpack(g.rec(j)); u != r {
				t.Fatalf("%+v block %d record %d = %+v, reference %+v", geom, i, j, u, r)
			}
		}
	}
}

// formationGeometries is every cache kind at W = 4, 8 and 16.
func formationGeometries() []icache.Geometry {
	var gs []icache.Geometry
	for _, k := range []icache.Kind{icache.Normal, icache.Extended, icache.SelfAligned} {
		for _, w := range []int{4, 8, 16} {
			gs = append(gs, icache.ForKind(k, w))
		}
	}
	return gs
}

// fuzzRecords decodes a record stream from fuzz bytes, two per record.
// In the first byte, bits 0-2 pick the class (mod isa.NumClasses), bit
// 3 makes a conditional taken (every other transfer is), and bits 4-5
// both set make the next address break sequence after a record that
// does not redirect. The second byte places the target within -64..191
// of the record. The stream ends wherever the bytes do, often
// mid-block.
func fuzzRecords(data []byte) *trace.Buffer {
	src := trace.NewBuffer("fuzz")
	pc := uint32(64)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		r := cpu.Retired{PC: pc, Class: isa.Class((op & 7) % uint8(isa.NumClasses))}
		r.Target = pc + uint32(arg) - 64
		switch {
		case r.Class == isa.ClassPlain:
			r.Target = 0
		case r.Class != isa.ClassCond || op&0x08 != 0:
			r.Taken = true
		}
		src.Append(r)
		switch {
		case r.Taken:
			pc = r.Target
		case op&0x30 == 0x30:
			pc += uint32(arg) + 2 // a discontinuity with no redirecting record
		default:
			pc++
		}
	}
	return src
}

// FuzzBlockFormation checks the one-pass run-walking reader against
// the reference segmentation on arbitrary record streams, appended
// one instruction at a time so plain runs fold — PC discontinuities,
// long plain runs with block limits inside them and a mid-block end of
// stream included — under every cache kind at W = 4, 8 and 16. Seed
// inputs live under testdata/fuzz/FuzzBlockFormation.
func FuzzBlockFormation(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 70, 0, 0})
	f.Add([]byte{1, 60, 9, 90, 0x30, 5, 0, 0, 4, 100, 2, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzRecords(data)
		for _, geom := range formationGeometries() {
			checkFormation(t, src, geom)
		}
	})
}

// TestBlockFormationRandom checks the reader against the reference on
// the engine tests' random control-flow traces, which run long enough
// to exercise every block shape many times over.
func TestBlockFormationRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		src := randomTrace(seed, 3000)
		for _, geom := range formationGeometries() {
			checkFormation(t, src, geom)
		}
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
	if b.start != 0 || b.n != 3 || b.exit != 2 || b.next != 20 {
		t.Errorf("block 0 = start%d n%d exit%d next%d", b.start, b.n, b.exit, b.next)
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
	if b.n != 3 || b.exit != 2 || b.next != 50 {
		t.Errorf("block = n%d exit%d next%d", b.n, b.exit, b.next)
	}
	if b.condN != 3 || b.condBits != 0b001 {
		t.Errorf("cond outcomes = %d, %03b; want 3, 001", b.condN, b.condBits)
	}
	if b.branch != 0b111 || b.cond != 0b111 {
		t.Errorf("masks = branch %03b cond %03b; want 111, 111", b.branch, b.cond)
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
	if blocks[0].n != 3 || blocks[0].next != 8 || blocks[0].exit != -1 {
		t.Errorf("block 0 = n%d next%d exit%d; want 3, 8, -1",
			blocks[0].n, blocks[0].next, blocks[0].exit)
	}
	if blocks[1].start != 8 || blocks[1].n != 5 {
		t.Errorf("block 1 = start%d n%d", blocks[1].start, blocks[1].n)
	}
}

func TestSelfAlignedIgnoresLineBoundary(t *testing.T) {
	geom := icache.ForKind(icache.SelfAligned, 8)
	var rs []rec
	for pc := uint32(5); pc < 14; pc++ {
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	if blocks[0].n != 8 {
		t.Errorf("self-aligned block = %d instructions, want 8", blocks[0].n)
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
	if blocks[0].n != 8 {
		t.Errorf("extended block 0 = %d instructions, want 8", blocks[0].n)
	}
	// Next starts at 13: only 3 until the line ends at 16.
	if blocks[1].start != 13 || blocks[1].n != 3 {
		t.Errorf("extended block 1 = start%d n%d, want 13, 3", blocks[1].start, blocks[1].n)
	}
}

func TestBlockWidthCap(t *testing.T) {
	geom := icache.Geometry{Kind: icache.Normal, BlockWidth: 4, LineSize: 8, Banks: 8}
	var rs []rec
	for pc := uint32(0); pc < 8; pc++ {
		rs = append(rs, rec{pc, isa.ClassPlain, false, 0})
	}
	blocks := readBlocks(t, mkTrace(rs), geom)
	if len(blocks) != 2 || blocks[0].n != 4 || blocks[1].n != 4 {
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
	if len(blocks) != 1 || blocks[0].n != 2 {
		t.Fatalf("partial final block mishandled: %+v", blocks)
	}
}
