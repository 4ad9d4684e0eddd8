package bitable

import (
	"testing"
	"testing/quick"
)

// Property: the packed table and the wide-slice oracle (refTable) are
// observationally identical under any Fill/Lookup stream, for both code
// widths.
func TestPackedMatchesReference(t *testing.T) {
	for _, near := range []bool{false, true} {
		near := near
		f := func(ops []uint32) bool {
			const entries, line = 8, 8
			pk := New(entries, line, near)
			ref := newRefTable(entries, line)
			maxCode := Code(3)
			if near {
				maxCode = 7
			}
			codes := make([]Code, line)
			known := make([]bool, line)
			for _, op := range ops {
				addr := (op >> 8) % 64 * line
				if op&1 == 0 {
					for j := range codes {
						codes[j] = Code(op>>uint(2*j)) & maxCode
						known[j] = op>>uint(j)&1 == 1
					}
					pk.Fill(addr, codes, known)
					ref.Fill(addr, codes, known)
					continue
				}
				cp, fp := pk.Lookup(addr)
				cr, fr := ref.Lookup(addr)
				if fp != fr || (cp == nil) != (cr == nil) {
					return false
				}
				for j := range cp {
					if cp[j] != cr[j] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("near=%v: %v", near, err)
		}
	}
}

// The engine's stale-BIT check holds two decoded lines at once; the
// packed table's rotating scratch must keep the first alive across the
// second Lookup.
func TestPackedLookupDoubleBuffer(t *testing.T) {
	tb := New(32, 4, true)
	fill := func(addr uint32, c Code) {
		codes := []Code{c, c, c, c}
		known := []bool{true, true, true, true}
		tb.Fill(addr, codes, known)
	}
	fill(0, CodeReturn)
	fill(4, CodeOther)
	a, _ := tb.Lookup(0)
	b, _ := tb.Lookup(4)
	if a[0] != CodeReturn || b[0] != CodeOther {
		t.Fatalf("double-buffer violated: a[0]=%v b[0]=%v", a[0], b[0])
	}
}

func TestStateBitsMatchesWidth(t *testing.T) {
	for _, c := range []struct {
		near bool
		want int
	}{{false, 1024 * 8 * 2}, {true, 1024 * 8 * 3}} {
		tb := New(1024, 8, c.near)
		if got := tb.StateBits(); got != c.want {
			t.Errorf("StateBits(near=%v) = %d, want %d", c.near, got, c.want)
		}
		if tb.StateBits() != tb.CostBits(c.near) {
			t.Errorf("near=%v: StateBits != CostBits", c.near)
		}
	}
	if New(0, 8, true).StateBits() != 0 {
		t.Error("perfect table should cost 0 bits")
	}
}
