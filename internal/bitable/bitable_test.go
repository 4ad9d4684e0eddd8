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
		if got, want := c.IsCond(), c >= CodeCondLong; got != want {
			t.Errorf("%v.IsCond() = %v, want %v", c, got, want)
		}
		if got, want := c.IsNear(), c >= CodeCondPrev; got != want {
			t.Errorf("%v.IsNear() = %v, want %v", c, got, want)
		}
		if got, want := c.IsControlTransfer(), c != CodePlain; got != want {
			t.Errorf("%v.IsControlTransfer() = %v, want %v", c, got, want)
		}
	}
}

func TestNearDelta(t *testing.T) {
	want := map[Code]int32{CodeCondPrev: -1, CodeCondSame: 0, CodeCondNext: 1, CodeCondNext2: 2}
	for c, d := range want {
		if got := c.NearDelta(); got != d {
			t.Errorf("%v.NearDelta() = %d, want %d", c, got, d)
		}
	}
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
		return int64(target)/line == int64(pc)/line+int64(c.NearDelta())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfectTable(t *testing.T) {
	p := New(0, 8, true)
	if !p.Perfect() {
		t.Fatal("entries=0 should be perfect")
	}
	codes, fresh := p.Lookup(40)
	if codes != nil || !fresh {
		t.Error("perfect table should report (nil, true)")
	}
	if got := p.CostBits(false); got != 0 {
		t.Errorf("perfect table cost = %d, want 0", got)
	}
}

func TestFiniteTableAliasing(t *testing.T) {
	tb := New(4, 8, true) // 4 line entries
	mk := func(c Code) ([]Code, []bool) {
		codes := make([]Code, 8)
		known := make([]bool, 8)
		codes[3] = c
		known[3] = true
		return codes, known
	}

	// A never-filled entry is not fresh.
	if _, fresh := tb.Lookup(0); fresh {
		t.Error("cold entry should not be fresh")
	}

	c0, k0 := mk(CodeCondLong)
	tb.Fill(0, c0, k0) // line at address 0 (line index 0, entry 0)
	codes, fresh := tb.Lookup(0)
	if !fresh || codes[3] != CodeCondLong {
		t.Fatalf("after fill: fresh=%v codes[3]=%v", fresh, codes[3])
	}

	// Line address 32 = line index 4 aliases entry 0 (4 entries).
	codes, fresh = tb.Lookup(32)
	if fresh {
		t.Error("aliased lookup should be stale")
	}
	if codes[3] != CodeCondLong {
		t.Error("stale lookup should expose the alias's codes")
	}

	// Filling the alias evicts the old line entirely.
	c1, k1 := mk(CodeReturn)
	tb.Fill(32, c1, k1)
	if _, fresh := tb.Lookup(0); fresh {
		t.Error("evicted line should be stale")
	}
	codes, fresh = tb.Lookup(32)
	if !fresh || codes[3] != CodeReturn {
		t.Errorf("alias after fill: fresh=%v codes[3]=%v", fresh, codes[3])
	}
}

func TestFillMergesKnownPositions(t *testing.T) {
	tb := New(2, 8, true)
	codes := make([]Code, 8)
	known := make([]bool, 8)
	codes[1], known[1] = CodeCondLong, true
	tb.Fill(0, codes, known)

	// A second fill of the same line with a different position must
	// keep position 1.
	codes2 := make([]Code, 8)
	known2 := make([]bool, 8)
	codes2[5], known2[5] = CodeReturn, true
	tb.Fill(0, codes2, known2)

	got, fresh := tb.Lookup(0)
	if !fresh || got[1] != CodeCondLong || got[5] != CodeReturn {
		t.Errorf("merge failed: fresh=%v codes=%v", fresh, got)
	}
}

func TestCostBits(t *testing.T) {
	tb := New(1024, 8, true)
	if got := tb.CostBits(false); got != 16*1024 {
		t.Errorf("2-bit BIT cost = %d, want 16384 (Table 7)", got)
	}
	if got := tb.CostBits(true); got != 24*1024 {
		t.Errorf("3-bit BIT cost = %d, want 24576", got)
	}
}
