package seltab

import (
	"testing"
	"testing/quick"
)

// TestSelectorComparisons checks the packed compare the engine uses
// on hand-picked selectors: GHR fields never affect SameMux, and
// multiplexer fields never affect SameGHR.
func TestSelectorComparisons(t *testing.T) {
	tb := New(4, 1, 8, 8, true, 2, false)
	mux := func(a, b Selector) bool { return tb.SameMux(tb.Encode(a), tb.Encode(b)) }
	ghr := func(a, b Selector) bool { return tb.SameGHR(tb.Encode(a), tb.Encode(b)) }
	a := Selector{Source: SrcTarget, Pos: 5, NTCount: 2, TakenBit: true}
	b := a
	if !mux(a, b) || !ghr(a, b) {
		t.Error("identical selectors should compare equal on both axes")
	}
	b.NTCount = 3
	if ghr(a, b) {
		t.Error("different NTCount should differ on GHR")
	}
	if !mux(a, b) {
		t.Error("GHR fields must not affect mux comparison")
	}
	c := a
	c.Pos = 6
	if mux(a, c) {
		t.Error("different position should differ on mux")
	}
	if !ghr(a, c) {
		t.Error("mux fields must not affect GHR comparison")
	}
	d := a
	d.StartOff = 3
	if mux(a, d) {
		t.Error("different start offset should differ on mux")
	}
}

func TestTableIndexing(t *testing.T) {
	tb := New(10, 1, 8, 8, true, 2, false)
	e1 := tb.At(0x3FF, 0x3FF) // XOR = 0
	e2 := tb.At(0, 0)
	if e1 != e2 {
		t.Error("gshare-equal indexes should share an entry")
	}
	e3 := tb.At(0, 1)
	if e1 == e3 {
		t.Error("different indexes should not share an entry")
	}
}

func TestMultipleTablesSplitByOffset(t *testing.T) {
	tb := New(10, 8, 8, 8, true, 2, false)
	if tb.Tables() != 8 || tb.EntriesPerTable() != 1024 {
		t.Fatalf("geometry: %d tables x %d", tb.Tables(), tb.EntriesPerTable())
	}
	// Two block addresses that XOR-alias in one table but differ in
	// their low bits land in different tables (§4.3's point: the
	// entering position disambiguates).
	a := tb.At(0x10, 0x20)
	b := tb.At(0x11, 0x21) // same XOR, different low bits
	if a == b {
		t.Error("different starting offsets should use different tables")
	}
}

func TestEntryWriteThrough(t *testing.T) {
	tb := New(8, 1, 8, 8, true, 2, false)
	set(tb.At(5, 9), 1, Selector{Source: SrcRAS, Pos: 7})
	got, ok := get(tb.At(5, 9), 1)
	if !ok || got.Source != SrcRAS || got.Pos != 7 {
		t.Error("entry mutations must persist")
	}
}

func TestSelectorBits(t *testing.T) {
	// §3.1: 3-bit selector for W=4, 4 for W=8; plus log2(W)+1 GHR bits;
	// the paper's 1024-entry, 8-bit-entry ST is 8 Kbit.
	if got := SelectorBits(4, 4, false); got != 3+2+1 {
		t.Errorf("W=4 selector bits = %d, want 6", got)
	}
	if got := SelectorBits(8, 8, false); got != 4+3+1 {
		t.Errorf("W=8 selector bits = %d, want 8", got)
	}
	if got := New(10, 1, 8, 8, false, 2, false).StateBits(); got != 8*1024 {
		t.Errorf("ST cost = %d bits, want 8192 (Table 7)", got)
	}
	if got := New(10, 1, 8, 8, false, 2, true).StateBits(); got != 16*1024 {
		t.Errorf("dual ST cost = %d bits, want 16384", got)
	}
}

// Property: At is deterministic and total — same key, same entry;
// and entries from different (history, addr) pairs with different
// indexes never alias.
func TestLookupDeterminism(t *testing.T) {
	f := func(h, a uint32) bool {
		tb := New(8, 4, 8, 8, true, 2, false)
		return tb.At(h, a) == tb.At(h, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSourceNames(t *testing.T) {
	for s := Source(0); s < numSources; s++ {
		if s.String() == "" {
			t.Errorf("source %d has no name", s)
		}
	}
}
