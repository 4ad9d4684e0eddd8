package bitable

import (
	"testing"
	"testing/quick"
)

// Property: the packed table and the wide-slice oracle (refTable) are
// observationally identical under any stream of run fills and run
// lookups, for both code widths. A run covers positions off..off+n-1 of
// one line, as the engine's per-line block runs do; the oracle takes
// the equivalent known mask and reads whole lines.
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
			got := make([]Code, line)
			for _, op := range ops {
				addr := (op >> 8) % 64 * line
				off := int(op>>1) % line
				n := int(op>>4)%(line-off) + 1
				if op&1 == 0 {
					for j := range codes {
						codes[j] = Code(op>>uint(2*j)) & maxCode
						known[j] = j >= off && j < off+n
					}
					pk.Fill(addr, off, codes[off:off+n])
					ref.Fill(addr, codes, known)
					continue
				}
				fp := pk.Lookup(addr, off, got[:n])
				cr, fr := ref.Lookup(addr)
				if fp != fr {
					return false
				}
				for j := 0; j < n; j++ {
					want := CodePlain
					if cr != nil {
						want = cr[off+j]
					}
					if got[j] != want {
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

// Runs that leave their line panic rather than touch the next entry.
func TestRunOutsideLinePanics(t *testing.T) {
	tb := New(4, 8, false)
	for name, f := range map[string]func(){
		"fill past end":    func() { tb.Fill(0, 6, make([]Code, 3)) },
		"lookup past end":  func() { tb.Lookup(0, 0, make([]Code, 9)) },
		"negative offset":  func() { tb.Lookup(0, -1, make([]Code, 1)) },
		"fill offset only": func() { tb.Fill(0, 9, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
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
	}
	if New(0, 8, true).StateBits() != 0 {
		t.Error("perfect table should cost 0 bits")
	}
}
