package seltab

import (
	"testing"
	"testing/quick"
)

// randomized selector within a geometry's reachable ranges.
func selFor(op uint64, blockWidth, lineSize int, nearBlock bool) Selector {
	s := Selector{
		Source:   Source(op % uint64(numSources)),
		Pos:      uint8(op >> 8 % uint64(blockWidth)),
		NTCount:  uint8(op >> 16 % uint64(blockWidth+1)),
		TakenBit: op>>24&1 == 1,
	}
	if nearBlock {
		s.StartOff = uint8(op >> 32 % uint64(lineSize))
	}
	return s
}

// Property: the packed table and the wide-struct oracle (refTable) are
// observationally identical under any get/set stream, across
// geometries. The table stores every role (double selection, MaxBlocks
// blocks); TestCompactRolesMatchReference covers the narrower shapes.
func TestPackedMatchesReference(t *testing.T) {
	geoms := []struct {
		w, line int
		near    bool
	}{{4, 4, false}, {8, 8, false}, {8, 8, true}, {16, 16, true}, {1, 4, false}}
	for _, g := range geoms {
		g := g
		f := func(ops []uint64) bool {
			pk := New(6, 2, g.w, g.line, g.near, MaxBlocks, true)
			ref := newRefTable(6, 2)
			for _, op := range ops {
				h, addr := uint32(op>>40), uint32(op>>52)
				role := int(op >> 4 % MaxBlocks)
				rp, rr := pk.At(h, addr), ref.Lookup(h, addr)
				got, ok := get(rp, role)
				if ok != rr.Valid || valid(rp) != rr.Valid {
					return false
				}
				if rr.Valid && got != *rr.Slot(role) {
					return false
				}
				if op&2 == 0 {
					s := selFor(op, g.w, g.line, g.near)
					set(rp, role, s)
					*rr.Slot(role) = s
					rr.Valid = true
					if got, ok := get(rp, role); got != s || !ok {
						return false
					}
				}
			}
			if pk.ValidCount() != ref.ValidCount() {
				return false
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("W=%d line=%d near=%v: %v", g.w, g.line, g.near, err)
		}
	}
}

// Every reachable selector round-trips losslessly through the packed
// field encoding (§3.1's bit budget is sufficient).
func TestPackedSelectorRoundTrip(t *testing.T) {
	tb := New(4, 1, 8, 8, true, 2, false)
	for src := Source(0); src < numSources; src++ {
		for pos := 0; pos < 8; pos++ {
			for nt := 0; nt <= 8; nt++ {
				for off := 0; off < 8; off++ {
					s := Selector{
						Source: src, Pos: uint8(pos), NTCount: uint8(nt),
						TakenBit: nt&1 == 0, StartOff: uint8(off),
					}
					if got := tb.decode(tb.Encode(s)); got != s {
						t.Fatalf("round trip: %+v -> %+v", s, got)
					}
				}
			}
		}
	}
}

func TestPackedEncodePanicsOutOfRange(t *testing.T) {
	tb := New(4, 1, 8, 8, false, 2, false)
	for name, s := range map[string]Selector{
		"pos too wide":        {Pos: 8},
		"nt too wide":         {NTCount: 16},
		"offset without near": {StartOff: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			tb.Encode(s)
		}()
	}
}

func TestStateBitsClosedForm(t *testing.T) {
	// Table 7: the 1024-entry, 8-bit-selector ST is 8 Kbit single, 16 dual.
	if got := New(10, 1, 8, 8, false, 2, false).StateBits(); got != 8*1024 {
		t.Errorf("StateBits(single) = %d, want 8192", got)
	}
	if got := New(10, 1, 8, 8, false, 2, true).StateBits(); got != 16*1024 {
		t.Errorf("StateBits(double) = %d, want 16384", got)
	}
	// The closed form s * 2^k * SelectorBits (doubled under double
	// selection) holds for every geometry and selection, and the
	// N-block extension's extra slots add no modeled cost.
	for _, w := range []int{4, 8, 16} {
		for _, near := range []bool{false, true} {
			for _, double := range []bool{false, true} {
				want := 2 << 8 * SelectorBits(w, 8, near)
				if double {
					want *= 2
				}
				for blocks := 2; blocks <= MaxBlocks; blocks++ {
					if got := New(8, 2, w, 8, near, blocks, double).StateBits(); got != want {
						t.Errorf("W=%d near=%v double=%v blocks=%d: StateBits = %d, want %d",
							w, near, double, blocks, got, want)
					}
				}
			}
		}
	}
}
