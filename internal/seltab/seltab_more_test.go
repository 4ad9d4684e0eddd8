package seltab

import "testing"

func TestEntrySlots(t *testing.T) {
	var e Entry
	e.First.Pos = 1
	e.Second.Pos = 2
	e.Third.Pos = 3
	e.Fourth.Pos = 4
	for role, want := range map[int]uint8{0: 1, 1: 2, 2: 3, 3: 4} {
		if got := e.Slot(role).Pos; got != want {
			t.Errorf("Slot(%d).Pos = %d, want %d", role, got, want)
		}
	}
	// Slots are live pointers.
	e.Slot(2).Source = SrcRAS
	if e.Third.Source != SrcRAS {
		t.Error("Slot(2) did not alias Third")
	}
}

// TestSelectorEqualCoversAllFields: a selector differing from another
// in any one field is a mismatch on the packed compare the engine uses
// (SameMux and SameGHR together), and equal selectors match.
func TestSelectorEqualCoversAllFields(t *testing.T) {
	tb := New(4, 1, 8, 8, true, 2, false)
	same := func(a, b Selector) bool {
		ra, rb := tb.Encode(a), tb.Encode(b)
		return tb.SameMux(ra, rb) && tb.SameGHR(ra, rb)
	}
	base := Selector{Source: SrcTarget, Pos: 3, NTCount: 1, TakenBit: true, StartOff: 2}
	variants := []Selector{
		{Source: SrcRAS, Pos: 3, NTCount: 1, TakenBit: true, StartOff: 2},
		{Source: SrcTarget, Pos: 4, NTCount: 1, TakenBit: true, StartOff: 2},
		{Source: SrcTarget, Pos: 3, NTCount: 2, TakenBit: true, StartOff: 2},
		{Source: SrcTarget, Pos: 3, NTCount: 1, TakenBit: false, StartOff: 2},
		{Source: SrcTarget, Pos: 3, NTCount: 1, TakenBit: true, StartOff: 5},
	}
	for i, v := range variants {
		if same(base, v) {
			t.Errorf("variant %d should differ from base", i)
		}
	}
	if !same(base, base) {
		t.Error("selector not equal to itself")
	}
}

func TestTableGeometryAccessors(t *testing.T) {
	tb := New(9, 4, 8, 8, true, 2, false)
	if tb.Tables() != 4 {
		t.Errorf("Tables = %d", tb.Tables())
	}
	if tb.EntriesPerTable() != 512 {
		t.Errorf("EntriesPerTable = %d", tb.EntriesPerTable())
	}
	// Cost scales with table count and selector width.
	one := New(9, 1, 8, 8, true, 2, false)
	if tb.StateBits() != 4*one.StateBits() {
		t.Error("cost should scale linearly with table count")
	}
	if tb.StateBits() <= New(9, 4, 8, 8, false, 2, false).StateBits() {
		t.Error("near-block selectors must cost more")
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1, 8, 8, true, 2, false) },
		func() { New(30, 1, 8, 8, true, 2, false) },
		func() { New(10, 3, 8, 8, true, 2, false) },
		func() { New(10, 0, 8, 8, true, 2, false) },
		func() { New(10, 1, 8, 8, true, 1, false) },
		func() { New(10, 1, 8, 8, true, MaxBlocks+1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
