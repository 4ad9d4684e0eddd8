package pht

import (
	"testing"
	"testing/quick"
)

// Property: within one blocked-PHT entry, the order in which distinct
// counter positions are updated does not matter — each position is an
// independent 2-bit field of the packed word, so a block's worth of
// updates commutes across positions. (Updates to the SAME position do
// not commute; the property permutes positions, not outcomes.)
func TestPackedUpdateOrderPositionIndependent(t *testing.T) {
	f := func(h, addr uint32, outcomes uint8, perm []uint8) bool {
		const w = 8
		fwd := NewBlockedMulti(6, w, 1, IndexGShare)
		rev := NewBlockedMulti(6, w, 1, IndexGShare)
		idx := fwd.Index(h, addr)
		// One outcome per position, applied in index order on fwd and
		// in reverse on rev.
		for p := 0; p < w; p++ {
			fwd.At(idx).Update(p, outcomes>>uint(p)&1 == 1)
		}
		for p := w - 1; p >= 0; p-- {
			rev.At(idx).Update(p, outcomes>>uint(p)&1 == 1)
		}
		// And in an arbitrary permutation (each position once).
		prm := NewBlockedMulti(6, w, 1, IndexGShare)
		seen := [w]bool{}
		order := make([]int, 0, w)
		for _, v := range perm {
			p := int(v) % w
			if !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
		}
		for p := 0; p < w; p++ {
			if !seen[p] {
				order = append(order, p)
			}
		}
		for _, p := range order {
			prm.At(idx).Update(p, outcomes>>uint(p)&1 == 1)
		}
		for p := 0; p < w; p++ {
			if fwd.CounterAt(idx, p) != rev.CounterAt(idx, p) ||
				fwd.CounterAt(idx, p) != prm.CounterAt(idx, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the packed table, read and trained through the engine's
// path (Index, At, Entry), and the wide-slice oracle (refBlocked) are
// observationally identical under any predict/update stream. A branch
// at instruction address a uses counter position a mod W.
func TestBlockedPackedMatchesReference(t *testing.T) {
	f := func(ops []uint32) bool {
		pk := NewBlockedMulti(7, 8, 2, IndexGShare)
		ref := newRefBlocked(7, 8, 2, IndexGShare)
		for _, op := range ops {
			h, addr, taken := op>>16, op&0xFFFF, op&1 == 1
			e := pk.At(pk.Index(h, addr))
			if e.Taken(int(addr+3)%8) != ref.Predict(h, addr, addr+3) {
				return false
			}
			inst := addr + uint32(op>>8&7)
			e.Update(int(inst)%8, taken)
			ref.Update(h, addr, inst, taken)
		}
		for i := 0; i < pk.Entries(); i++ {
			for p := 0; p < pk.Width(); p++ {
				if pk.CounterAt(uint32(i), p) != ref.counterAt(uint32(i), p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalarPackedMatchesReference(t *testing.T) {
	f := func(ops []uint32) bool {
		pk := NewScalar(7, 8)
		ref := newRefScalar(7, 8)
		for _, op := range ops {
			h, addr, taken := op>>16, op&0xFFFF, op&1 == 1
			if pk.Predict(h, addr) != ref.Predict(h, addr) {
				return false
			}
			pk.Update(h, addr, taken)
			ref.Update(h, addr, taken)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: StateBits matches the paper's Table 7 closed form
// p * 2^k * 2W for every supported geometry.
func TestBlockedStateBitsClosedForm(t *testing.T) {
	for _, k := range []int{4, 8, 10, 12} {
		for _, w := range []int{4, 8, 16, 32} {
			for _, p := range []int{1, 2, 4} {
				b := NewBlockedMulti(k, w, p, IndexGShare)
				want := p * (1 << uint(k)) * 2 * w
				if got := b.StateBits(); got != want {
					t.Errorf("StateBits(k=%d,W=%d,p=%d) = %d, want %d", k, w, p, got, want)
				}
			}
		}
	}
	for _, k := range []int{4, 8, 12} {
		for _, p := range []int{1, 8} {
			s := NewScalar(k, p)
			if want := p * (1 << uint(k)) * 2; s.StateBits() != want {
				t.Errorf("scalar StateBits(k=%d,p=%d) = %d, want %d", k, p, s.StateBits(), want)
			}
		}
	}
}
