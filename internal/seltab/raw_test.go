package seltab

import (
	"fmt"
	"testing"
	"testing/quick"
)

// allSelectors enumerates every selector the table's geometry can
// encode: each source, position, not-taken count, taken bit and (with
// near-block prediction) starting offset.
func allSelectors(tb *Table) []Selector {
	offs := 1
	if tb.nearBlock {
		offs = tb.lineSize
	}
	var out []Selector
	for src := Source(0); src < numSources; src++ {
		for pos := 0; pos < tb.blockWidth; pos++ {
			for nt := 0; nt <= tb.blockWidth; nt++ {
				for _, taken := range []bool{false, true} {
					for off := 0; off < offs; off++ {
						out = append(out, Selector{
							Source: src, Pos: uint8(pos), NTCount: uint8(nt),
							TakenBit: taken, StartOff: uint8(off),
						})
					}
				}
			}
		}
	}
	return out
}

// TestRawCompareMatchesDecoded checks the engine's packed-domain
// comparison: for every pair of in-range selectors, masking the two
// Raw encodings gives exactly the struct oracles' sameMux and sameGHR
// answers on the decoded selectors, at W = 4, 8 and 16 (line = W), with and
// without near-block offsets.
//
// The pairs are enumerated literally except at W = 16 with near-block
// offsets, whose 61k selectors make 3.7e9 pairs. There every selector
// is checked to encode as the OR of a multiplexer part and a GHR part
// lying in disjoint bit ranges (SameMux's mask sees only the first,
// SameGHR's only the second), and every pair of multiplexer parts and
// every pair of GHR parts is compared; by that disjointness those
// comparisons decide every full pair.
func TestRawCompareMatchesDecoded(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		for _, near := range []bool{false, true} {
			t.Run(fmt.Sprintf("W=%d/near=%v", w, near), func(t *testing.T) {
				t.Parallel()
				tb := New(4, 1, w, w, near, 2, false)
				sels := allSelectors(tb)
				raws := make([]Raw, len(sels))
				for i, s := range sels {
					raws[i] = tb.Encode(s)
					if tb.decode(raws[i]) != s {
						t.Fatalf("%+v does not round-trip", s)
					}
				}
				if len(sels) > 20_000 {
					checkRawSplit(t, tb, sels, raws)
					return
				}
				checkRawPairs(t, tb, sels, raws, sels, raws)
			})
		}
	}
}

// checkRawPairs compares every (a, b) in as x bs on both axes.
func checkRawPairs(t *testing.T, tb *Table, as []Selector, ra []Raw, bs []Selector, rb []Raw) {
	t.Helper()
	for i, a := range as {
		for j, b := range bs {
			if tb.SameMux(ra[i], rb[j]) != sameMux(a, b) || tb.SameGHR(ra[i], rb[j]) != sameGHR(a, b) {
				t.Fatalf("%+v vs %+v: raw (mux %v, ghr %v), decoded (mux %v, ghr %v)",
					a, b, tb.SameMux(ra[i], rb[j]), tb.SameGHR(ra[i], rb[j]), sameMux(a, b), sameGHR(a, b))
			}
		}
	}
}

// checkRawSplit is the factored form of checkRawPairs for geometries
// too large to enumerate pairwise (see TestRawCompareMatchesDecoded).
func checkRawSplit(t *testing.T, tb *Table, sels []Selector, raws []Raw) {
	t.Helper()
	if tb.muxMask&tb.ghrMask != 0 {
		t.Fatalf("mux mask %#x overlaps GHR mask %#x", tb.muxMask, tb.ghrMask)
	}
	muxPart := func(s Selector) Selector { return Selector{Source: s.Source, Pos: s.Pos, StartOff: s.StartOff} }
	ghrPart := func(s Selector) Selector { return Selector{NTCount: s.NTCount, TakenBit: s.TakenBit} }
	var muxSels, ghrSels []Selector
	var muxRaws, ghrRaws []Raw
	seen := map[Selector]bool{}
	for i, s := range sels {
		m, g := muxPart(s), ghrPart(s)
		rm, rg := tb.Encode(m), tb.Encode(g)
		if raws[i] != rm|rg || rm&tb.ghrMask != 0 || rg&tb.muxMask != 0 {
			t.Fatalf("%+v: encoding %#x is not mux part %#x | GHR part %#x in disjoint fields", s, raws[i], rm, rg)
		}
		if !seen[m] {
			seen[m] = true
			muxSels, muxRaws = append(muxSels, m), append(muxRaws, rm)
		}
		if !seen[g] {
			seen[g] = true
			ghrSels, ghrRaws = append(ghrSels, g), append(ghrRaws, rg)
		}
	}
	checkRawPairs(t, tb, muxSels, muxRaws, muxSels, muxRaws)
	checkRawPairs(t, tb, ghrSels, ghrRaws, ghrSels, ghrRaws)
}

// TestCompactRolesMatchReference checks the role-compacted layout
// against the wide-struct oracle for each fetch-group shape the engine
// builds — single selection (role 1), double selection (roles 0-1) and
// the 3- and 4-block extensions, single and double — under random
// Get/Set streams over the roles the shape uses.
func TestCompactRolesMatchReference(t *testing.T) {
	shapes := []struct {
		blocks int
		double bool
		first  int
	}{
		{2, false, 1}, {2, true, 0},
		{3, false, 1}, {3, true, 0},
		{4, false, 1}, {4, true, 0},
	}
	for _, sh := range shapes {
		sh := sh
		tb := New(6, 2, 8, 8, true, sh.blocks, sh.double)
		if tb.firstRole != sh.first || tb.roles != sh.blocks-sh.first {
			t.Fatalf("blocks=%d double=%v: roles %d..%d, want %d..%d", sh.blocks, sh.double,
				tb.firstRole, tb.firstRole+tb.roles-1, sh.first, sh.blocks-1)
		}
		if got, want := tb.slots.Len(), tb.tables<<tb.hBits*(sh.blocks-sh.first); got != want {
			t.Errorf("blocks=%d double=%v: %d selector slots, want %d", sh.blocks, sh.double, got, want)
		}
		f := func(ops []uint64) bool {
			pk := New(6, 2, 8, 8, true, sh.blocks, sh.double)
			ref := newRefTable(6, 2)
			for _, op := range ops {
				h, addr := uint32(op>>40), uint32(op>>52)
				role := sh.first + int(op>>4%uint64(sh.blocks-sh.first))
				rp, rr := pk.At(h, addr), ref.Lookup(h, addr)
				got, ok := get(rp, role)
				if ok != rr.Valid || valid(rp) != rr.Valid {
					return false
				}
				if rr.Valid && got != *rr.Slot(role) {
					return false
				}
				if op&2 == 0 {
					s := selFor(op, 8, 8, true)
					set(rp, role, s)
					*rr.Slot(role) = s
					rr.Valid = true
				}
			}
			return pk.ValidCount() == ref.ValidCount()
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("blocks=%d double=%v: %v", sh.blocks, sh.double, err)
		}
	}
}

// TestRoleOutOfRangePanics: a role the table stores no selector for
// must panic on every accessor rather than alias another role's slot.
func TestRoleOutOfRangePanics(t *testing.T) {
	cases := []struct {
		blocks int
		double bool
		bad    []int
	}{
		{2, false, []int{-1, 0, 2, MaxBlocks}},
		{2, true, []int{-1, 2, 3}},
		{3, false, []int{0, 3}},
		{4, true, []int{-1, 4}},
	}
	for _, c := range cases {
		tb := New(4, 1, 8, 8, false, c.blocks, c.double)
		ref := tb.At(3, 5)
		for _, role := range c.bad {
			for name, f := range map[string]func(){
				"Load":   func() { ref.Load(role) },
				"SetRaw": func() { ref.SetRaw(role, 0) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("blocks=%d double=%v: %s(%d) did not panic", c.blocks, c.double, name, role)
						}
					}()
					f()
				}()
			}
		}
		if valid(ref) {
			t.Errorf("blocks=%d double=%v: a rejected write marked the entry valid", c.blocks, c.double)
		}
	}
}
