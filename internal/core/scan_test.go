package core

import (
	"testing"

	"mbbp/internal/bitable"
	"mbbp/internal/cpu"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/pht"
	"mbbp/internal/seltab"
)

// trueCodes is a test convenience: the shared-block BIT codes for one
// block under the engine's own near-block setting.
func (e *Engine) trueCodes(blk *block) []bitable.Code {
	sh := &newTile(e.geom, 1)[0]
	sh.blk = *blk
	return sh.trueCodes(e.cfg.NearBlock, e.geom.LineSize)
}

// scanOf scans blk over its true codes with dir and returns the result.
func (e *Engine) scanOf(blk *block, dir directionReader) scanResult {
	var sc scanResult
	e.scan(blk, e.trueCodes(blk), dir, &sc)
	return sc
}

// table2Engine builds an engine with near-block encoding for the
// paper's Table 2 example and a PHT entry holding the example's counter
// values: position 1 = 10 (weakly taken), position 5 = 11 (strongly
// taken).
func table2Engine(t *testing.T) (*Engine, []pht.Counter) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = SingleBlock
	cfg.NearBlock = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := make([]pht.Counter, 8)
	entry[1] = 2 // "10"
	entry[5] = 3 // "11"
	return e, entry
}

// table2Line returns the example line of Table 2, placed in line 1
// (addresses 8..15) so the prev-line target of the branch at position 1
// exists:
//
//	pos 0 shift, 1 branch (BIT 100: cond prev line), 2 add,
//	3 jump (BIT 010), 4 sub, 5 branch (BIT 011: cond long),
//	6 move, 7 return (BIT 001).
func table2Line() []cpu.Retired {
	return []cpu.Retired{
		{PC: 8, Class: isa.ClassPlain},
		{PC: 9, Class: isa.ClassCond, Target: 2}, // prev line
		{PC: 10, Class: isa.ClassPlain},
		{PC: 11, Class: isa.ClassJump, Target: 100}, // other branch
		{PC: 12, Class: isa.ClassPlain},
		{PC: 13, Class: isa.ClassCond, Target: 200}, // long target
		{PC: 14, Class: isa.ClassPlain},
		{PC: 15, Class: isa.ClassReturn},
	}
}

// entryOf returns entry 0 of a fresh blocked PHT, trained so that its
// counters equal counters (one per position).
func entryOf(counters []pht.Counter) pht.Entry {
	e := pht.NewBlockedMulti(1, len(counters), 1, pht.IndexGShare).At(0)
	for pos, c := range counters {
		for e.Counter(pos) < c {
			e.Update(pos, true)
		}
		for e.Counter(pos) > c {
			e.Update(pos, false)
		}
	}
	return e
}

// blockFrom forms the block of the Table 2 line that starts at
// startPos and exits at exitPos (inclusive), its exit redirecting to
// next.
func blockFrom(t *testing.T, e *Engine, line []cpu.Retired, startPos, exitPos int, next uint32) *block {
	t.Helper()
	recs := append([]cpu.Retired(nil), line[startPos:exitPos+1]...)
	recs[len(recs)-1].Taken, recs[len(recs)-1].Target = true, next
	return formBlock(t, e.geom, recs...)
}

// TestTable2Example reproduces every starting position of the paper's
// Table 2: the exit position the scan finds and the next-line selection
// source, plus the replacement selector on misprediction.
func TestTable2Example(t *testing.T) {
	e, entry := table2Engine(t)
	line := table2Line()

	// Check the BIT codes of the full line first (Table 2 row "BIT
	// value"): 000 100 000 010 000 011 000 001.
	full := formBlock(t, e.geom, line...)
	wantCodes := []bitable.Code{
		bitable.CodePlain, bitable.CodeCondPrev, bitable.CodePlain, bitable.CodeOther,
		bitable.CodePlain, bitable.CodeCondLong, bitable.CodePlain, bitable.CodeReturn,
	}
	got := e.trueCodes(full)
	for i := range wantCodes {
		if got[i] != wantCodes[i] {
			t.Errorf("BIT[%d] = %v, want %v", i, got[i], wantCodes[i])
		}
	}

	// Starting position 0: exit position 1 — the branch at 9 is
	// predicted taken (PHT 10) with a prev-line near target.
	b0 := blockFrom(t, e, line, 0, 1, 2)
	sc := e.scanOf(b0, entryOf(entry))
	if sc.exit != 1 || sc.sel.Source != seltab.SrcNearPrev {
		t.Errorf("start 0: exit %d source %v, want 1, near-prev", sc.exit, sc.sel.Source)
	}
	if sc.sel.Pos != 1 || !sc.sel.TakenBit || sc.sel.NTCount != 0 {
		t.Errorf("start 0 selector = %+v", sc.sel)
	}
	// Near-block targets are computed exactly.
	if addr, ok := e.evaluate(b0, &sc, 0); !ok || addr != 2 {
		t.Errorf("start 0 target = %d, want 2", addr)
	}
	// On misprediction, the alternate is the next control transfer in
	// the block: the jump at position 3, i.e. the target array slot for
	// position 3 ("target on misprediction: NLS(3)"). The replacement
	// selector is the same, because PHT 10 has no second chance.
	b03 := blockFrom(t, e, line, 0, 3, 100)
	alt := e.scanOf(b03, e.outcomes(b03)).sel
	if alt.Source != seltab.SrcTarget || alt.Pos != 3 {
		t.Errorf("start 0 replacement = %+v, want target@3", alt)
	}
	if entry[1].SecondChance() {
		t.Error("PHT 10 must not have a second chance")
	}

	// Starting position 2: exit position 3, always the target array
	// ("NLS(3)"), no misprediction possible.
	b2 := blockFrom(t, e, line, 2, 3, 100)
	sc = e.scanOf(b2, entryOf(entry))
	if sc.exit != 1 || sc.sel.Source != seltab.SrcTarget || sc.sel.Pos != 3 {
		t.Errorf("start 2: exit %d sel %+v, want exit 1 (pos 3), target", sc.exit, sc.sel)
	}
	if sc.sel.TakenBit {
		t.Error("unconditional exit must not shift a taken bit into the GHR")
	}

	// Starting position 4: exit position 5 (PHT 11 strongly taken),
	// NLS(5). On misprediction the alternate is the return at 7 (RAS),
	// and the second-chance bit means the prediction does not change.
	b4 := blockFrom(t, e, line, 4, 5, 200)
	sc = e.scanOf(b4, entryOf(entry))
	if sc.exit != 1 || sc.sel.Source != seltab.SrcTarget || sc.sel.Pos != 5 {
		t.Errorf("start 4: sel %+v, want target@5", sc.sel)
	}
	b47 := blockFrom(t, e, line, 4, 7, 77)
	alt = e.scanOf(b47, e.outcomes(b47)).sel
	if alt.Source != seltab.SrcRAS {
		t.Errorf("start 4 misprediction target = %v, want RAS", alt.Source)
	}
	if !entry[5].SecondChance() {
		t.Error("PHT 11 must have a second chance")
	}

	// Starting position 6: exit position 7, return — RAS.
	b6 := blockFrom(t, e, line, 6, 7, 77)
	sc = e.scanOf(b6, entryOf(entry))
	if sc.exit != 1 || sc.sel.Source != seltab.SrcRAS || sc.sel.Pos != 7 {
		t.Errorf("start 6: sel %+v, want ras@7", sc.sel)
	}
}

// TestTable1PredictionSources checks every BIT type maps to the Table 1
// prediction source in the scan.
func TestTable1PredictionSources(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = SingleBlock
	cfg.NearBlock = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	taken := make([]pht.Counter, 8)
	for i := range taken {
		taken[i] = 3
	}
	cases := []struct {
		class  isa.Class
		target uint32
		want   seltab.Source
	}{
		{isa.ClassReturn, 0, seltab.SrcRAS},
		{isa.ClassJump, 100, seltab.SrcTarget},
		{isa.ClassCall, 100, seltab.SrcTarget},
		{isa.ClassIndirect, 100, seltab.SrcTarget},
		{isa.ClassIndirectCall, 100, seltab.SrcTarget},
		{isa.ClassCond, 100, seltab.SrcTarget},   // long
		{isa.ClassCond, 2, seltab.SrcNearPrev},   // prev line
		{isa.ClassCond, 12, seltab.SrcNearSame},  // same line
		{isa.ClassCond, 17, seltab.SrcNearNext},  // next line
		{isa.ClassCond, 26, seltab.SrcNearNext2}, // next line + 1
	}
	for _, c := range cases {
		blk := formBlock(t, e.geom, cpu.Retired{PC: 8, Class: c.class, Taken: true, Target: c.target})
		sc := e.scanOf(blk, entryOf(taken))
		if sc.exit != 0 || sc.sel.Source != c.want {
			t.Errorf("%v target %d: source %v, want %v", c.class, c.target, sc.sel.Source, c.want)
		}
	}

	// A plain block falls through.
	blk := formBlock(t, e.geom, cpu.Retired{PC: 8, Class: isa.ClassPlain}, cpu.Retired{PC: 9, Class: isa.ClassPlain})
	sc := e.scanOf(blk, entryOf(taken))
	if sc.exit != -1 || sc.sel.Source != seltab.SrcFallThrough {
		t.Errorf("plain block: %+v, want fall-through", sc.sel)
	}
	if addr, _ := e.evaluate(blk, &sc, 0); addr != 10 {
		t.Errorf("fall-through address = %d, want 10", addr)
	}

	// A not-taken-predicted conditional is skipped and counted.
	weak := make([]pht.Counter, 8)
	blk = formBlock(t, e.geom,
		cpu.Retired{PC: 8, Class: isa.ClassCond, Target: 100},
		cpu.Retired{PC: 9, Class: isa.ClassReturn, Taken: true, Target: 55})
	sc = e.scanOf(blk, entryOf(weak))
	if sc.exit != 1 || sc.sel.Source != seltab.SrcRAS || sc.sel.NTCount != 1 {
		t.Errorf("skip-NT scan = exit %d %+v", sc.exit, sc.sel)
	}
}

// TestGeometryPositionWrap checks PHT counter positions and target-array
// slots wrap modulo W for the extended cache (§4.5: "the values wrap
// around the PHT block").
func TestGeometryPositionWrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = icache.ForKind(icache.Extended, 8)
	cfg.Mode = SingleBlock
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := make([]pht.Counter, 8)
	entry[12%8] = 3 // the branch at line offset 12 uses counter 4
	blk := formBlock(t, e.geom, cpu.Retired{PC: 12, Class: isa.ClassCond, Taken: true, Target: 300})
	sc := e.scanOf(blk, entryOf(entry))
	if sc.exit != 0 || !sc.sel.TakenBit {
		t.Errorf("wrapped counter not used: %+v", sc.sel)
	}
	if sc.sel.Pos != 4 {
		t.Errorf("selector pos = %d, want 4 (12 mod 8)", sc.sel.Pos)
	}
}
