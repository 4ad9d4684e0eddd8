package bitable

import (
	"testing"
	"testing/quick"

	"mbbp/internal/isa"
)

func TestEncodeTable1(t *testing.T) {
	const line = 8
	cases := []struct {
		class  isa.Class
		pc     uint32
		target uint32
		near   bool
		want   Code
	}{
		{isa.ClassPlain, 10, 0, true, CodePlain},
		{isa.ClassReturn, 10, 0, true, CodeReturn},
		{isa.ClassJump, 10, 500, true, CodeOther},
		{isa.ClassCall, 10, 500, true, CodeOther},
		{isa.ClassIndirect, 10, 500, true, CodeOther},
		{isa.ClassIndirectCall, 10, 500, true, CodeOther},
		// Conditional branches, near-block encoding on: target line
		// relative to the branch's line selects the code.
		{isa.ClassCond, 10, 500, true, CodeCondLong},
		{isa.ClassCond, 10, 2, true, CodeCondPrev},   // line 1 -> 0
		{isa.ClassCond, 10, 14, true, CodeCondSame},  // line 1 -> 1
		{isa.ClassCond, 10, 17, true, CodeCondNext},  // line 1 -> 2
		{isa.ClassCond, 10, 26, true, CodeCondNext2}, // line 1 -> 3
		// Near-block off: every conditional is long.
		{isa.ClassCond, 10, 14, false, CodeCondLong},
	}
	for _, c := range cases {
		if got := Encode(c.class, c.pc, c.target, line, c.near); got != c.want {
			t.Errorf("Encode(%v, pc=%d, tgt=%d, near=%v) = %v, want %v",
				c.class, c.pc, c.target, c.near, got, c.want)
		}
	}
}

func TestCodePredicates(t *testing.T) {
	for c := Code(0); c < 8; c++ {
		if got, want := c.IsNear(), c >= CodeCondPrev; got != want {
			t.Errorf("%v.IsNear() = %v, want %v", c, got, want)
		}
	}
}

// nearDelta decodes the line delta (-1, 0, +1, +2) of a near-block
// code — the test side of Encode's near cases; the engine itself only
// asks IsNear. It panics for non-near codes.
func nearDelta(c Code) int32 {
	switch c {
	case CodeCondPrev:
		return -1
	case CodeCondSame:
		return 0
	case CodeCondNext:
		return 1
	case CodeCondNext2:
		return 2
	}
	panic("bitable: nearDelta on non-near code " + c.String())
}

func TestNearDelta(t *testing.T) {
	want := map[Code]int32{CodeCondPrev: -1, CodeCondSame: 0, CodeCondNext: 1, CodeCondNext2: 2}
	for c, d := range want {
		if got := nearDelta(c); got != d {
			t.Errorf("nearDelta(%v) = %d, want %d", c, got, d)
		}
	}
}

// nearTarget decodes a near code the way the fetch adder does: the
// start of pc's line, plus the code's delta in lines, plus the target's
// offset within its line (the field the select table carries).
func nearTarget(pc uint32, c Code, off uint32, lineSize int) uint32 {
	lineStart := pc - pc%uint32(lineSize)
	return uint32(int64(lineStart) + int64(nearDelta(c))*int64(lineSize) + int64(off))
}

// Property: a near code round-trips — encoding a conditional branch and
// applying the code's delta recovers the target's line.
func TestNearEncodingRoundTrip(t *testing.T) {
	f := func(pc, target uint32) bool {
		const line = 8
		pc %= 1 << 20
		target %= 1 << 20
		c := Encode(isa.ClassCond, pc, target, line, true)
		if !c.IsNear() {
			return true
		}
		return int64(target)/line == int64(pc)/line+int64(nearDelta(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNearEncodeRoundTrip checks every accepted near encoding decodes
// back to the original target — the code's delta plus the target's line
// offset — over random addresses and line sizes, and that a conditional
// that stays long really is outside the {-1, 0, +1, +2} line window.
// Targets lie within 128 instructions of the branch, so both sides are
// hit.
func TestNearEncodeRoundTrip(t *testing.T) {
	f := func(pc uint32, dist int8, lineRaw uint8) bool {
		lineSize := 1 << (int(lineRaw)%5 + 1) // 2..32
		target := pc + uint32(int32(dist))
		c := Encode(isa.ClassCond, pc, target, lineSize, true)
		if !c.IsNear() {
			d := int64(target)/int64(lineSize) - int64(pc)/int64(lineSize)
			return c == CodeCondLong && (d < -1 || d > 2)
		}
		return nearTarget(pc, c, target%uint32(lineSize), lineSize) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestNearBlockEncoding checks the in-range deltas {-1, 0, +1, +2}
// round-trip through Encode and nearDelta and that out-of-range targets
// stay long — those are the ones that must occupy a target array slot.
func TestNearBlockEncoding(t *testing.T) {
	const line = 8
	cases := []struct {
		name      string
		pc, tgt   uint32
		near      bool
		wantDelta int32
	}{
		{"same line", 18, 22, true, 0},
		{"previous line", 18, 9, true, -1},
		{"next line", 18, 31, true, 1},
		{"next line + 1", 18, 32, true, 2},
		{"two lines back", 18, 7, false, 0},
		{"three lines ahead", 18, 40, false, 0},
		{"far jump", 18, 4000, false, 0},
		{"line boundary target", 16, 24, true, 1},
		{"pc at line start", 8, 0, true, -1},
	}
	for _, c := range cases {
		code := Encode(isa.ClassCond, c.pc, c.tgt, line, true)
		if code.IsNear() != c.near {
			t.Errorf("%s: code %v, near=%v want %v", c.name, code, code.IsNear(), c.near)
			continue
		}
		if !c.near {
			continue
		}
		if d := nearDelta(code); d != c.wantDelta {
			t.Errorf("%s: delta=%d, want %d", c.name, d, c.wantDelta)
		}
		if got := nearTarget(c.pc, code, c.tgt%line, line); got != c.tgt {
			t.Errorf("%s: round-trip %d, want %d", c.name, got, c.tgt)
		}
	}
}

func TestPerfectTable(t *testing.T) {
	p := New(0, 8, true)
	if !p.Perfect() {
		t.Fatal("entries=0 should be perfect")
	}
	dst := []Code{CodeReturn}
	if fresh := p.Lookup(40, 0, dst); !fresh || dst[0] != CodeReturn {
		t.Error("perfect table should report fresh and leave dst alone")
	}
	if got := p.StateBits(); got != 0 {
		t.Errorf("perfect table cost = %d, want 0", got)
	}
}

func TestFiniteTableAliasing(t *testing.T) {
	tb := New(4, 8, true) // 4 line entries
	got := make([]Code, 1)
	lookup := func(addr uint32) (Code, bool) {
		fresh := tb.Lookup(addr, 3, got)
		return got[0], fresh
	}

	// A never-filled entry is not fresh and reads as plain.
	if c, fresh := lookup(0); fresh || c != CodePlain {
		t.Errorf("cold entry: fresh=%v code=%v, want stale plain", fresh, c)
	}

	tb.Fill(0, 3, []Code{CodeCondLong}) // line at address 0 (line index 0, entry 0)
	if c, fresh := lookup(0); !fresh || c != CodeCondLong {
		t.Fatalf("after fill: fresh=%v codes[3]=%v", fresh, c)
	}

	// Line address 32 = line index 4 aliases entry 0 (4 entries).
	c, fresh := lookup(32)
	if fresh {
		t.Error("aliased lookup should be stale")
	}
	if c != CodeCondLong {
		t.Error("stale lookup should expose the alias's codes")
	}

	// Filling the alias evicts the old line entirely.
	tb.Fill(32, 3, []Code{CodeReturn})
	if _, fresh := lookup(0); fresh {
		t.Error("evicted line should be stale")
	}
	if c, fresh := lookup(32); !fresh || c != CodeReturn {
		t.Errorf("alias after fill: fresh=%v codes[3]=%v", fresh, c)
	}
}

func TestFillMergesKnownPositions(t *testing.T) {
	tb := New(2, 8, true)
	tb.Fill(0, 1, []Code{CodeCondLong})

	// A second fill of the same line with a different position must
	// keep position 1.
	tb.Fill(0, 5, []Code{CodeReturn})

	got := make([]Code, 8)
	fresh := tb.Lookup(0, 0, got)
	if !fresh || got[1] != CodeCondLong || got[5] != CodeReturn {
		t.Errorf("merge failed: fresh=%v codes=%v", fresh, got)
	}
	// Evicting fills clear the positions the run does not cover.
	tb.Fill(16, 5, []Code{CodeOther})
	tb.Lookup(16, 0, got)
	if got[1] != CodePlain || got[5] != CodeOther {
		t.Errorf("evicting fill kept the old line's codes: %v", got)
	}
}

func TestCostBits(t *testing.T) {
	if got := New(1024, 8, false).StateBits(); got != 16*1024 {
		t.Errorf("2-bit BIT cost = %d, want 16384 (Table 7)", got)
	}
	if got := New(1024, 8, true).StateBits(); got != 24*1024 {
		t.Errorf("3-bit BIT cost = %d, want 24576", got)
	}
}
