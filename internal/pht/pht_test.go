package pht

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// counterAt returns a one-entry, one-position blocked PHT whose
// counter was trained from its weakly-not-taken reset state to c.
func counterAt(c Counter) Entry {
	e := NewBlockedMulti(1, 1, 1, IndexGShare).At(0)
	for s := WeaklyNotTaken; s < c; s++ {
		e.Update(0, true)
	}
	if c < WeaklyNotTaken {
		e.Update(0, false)
	}
	return e
}

// TestCounterTransitions drives the packed counter the engine trains
// (Entry.Update) through every 2-bit transition.
func TestCounterTransitions(t *testing.T) {
	cases := []struct {
		c     Counter
		taken bool
		want  Counter
	}{
		{0, false, 0}, // saturate low
		{0, true, 1},
		{1, false, 0},
		{1, true, 2},
		{2, false, 1},
		{2, true, 3},
		{3, false, 2},
		{3, true, 3}, // saturate high
	}
	for _, c := range cases {
		e := counterAt(c.c)
		if e.Counter(0) != c.c {
			t.Fatalf("counter trained to %d reads %d", c.c, e.Counter(0))
		}
		e.Update(0, c.taken)
		if got := e.Counter(0); got != c.want {
			t.Errorf("Counter(%d) updated %v = %d, want %d", c.c, c.taken, got, c.want)
		}
	}
}

func TestCounterPredictionAndSecondChance(t *testing.T) {
	for c := Counter(0); c <= 3; c++ {
		if got, want := c.Taken(), c >= 2; got != want {
			t.Errorf("Counter(%d).Taken() = %v, want %v", c, got, want)
		}
		if got, want := c.SecondChance(), c == 0 || c == 3; got != want {
			t.Errorf("Counter(%d).SecondChance() = %v, want %v", c, got, want)
		}
	}
}

// Property: a counter stays within [0,3] under any update sequence, and
// after two consecutive identical outcomes it always predicts that
// outcome.
func TestCounterProperties(t *testing.T) {
	f := func(start uint8, outcomes []bool) bool {
		e := counterAt(Counter(start % 4))
		for _, o := range outcomes {
			e.Update(0, o)
			if e.Counter(0) > 3 {
				return false
			}
		}
		c := e.Counter(0)
		if len(outcomes) >= 2 {
			last := outcomes[len(outcomes)-1]
			prev := outcomes[len(outcomes)-2]
			if last == prev && c.Taken() != last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGHRShiftSemantics(t *testing.T) {
	// The paper's example: predicting not-taken, not-taken, taken
	// shifts the register left three bits and inserts "001".
	g := NewGHR(10)
	g.ShiftPacked(3, 0b001) // oldest outcome in bit 2
	if got := g.Value(); got != 0b001 {
		t.Errorf("GHR after NT,NT,T = %03b, want 001", got)
	}
	g.ShiftPacked(2, 0b11)
	if got := g.Value(); got != 0b00111 {
		t.Errorf("GHR after two more taken = %05b, want 00111", got)
	}
}

func TestGHRMasking(t *testing.T) {
	g := NewGHR(4)
	for i := 0; i < 100; i++ {
		g.Shift(true)
	}
	if got := g.Value(); got != 0xF {
		t.Errorf("4-bit GHR of all-taken = %x, want f", got)
	}
	g.ShiftPacked(12, 0xFFF)
	if got := g.Value(); got != 0xF {
		t.Errorf("ShiftPacked should mask: got %x, want f", got)
	}
	g.Reset()
	if got := g.Value(); got != 0 {
		t.Errorf("Reset GHR = %x, want 0", got)
	}
}

// Property: ShiftPacked(n, bits) equals n individual Shifts of the bits
// oldest-first (refShiftPacked), for every n in 0..64 with bits below
// 2^min(n, 32), from random histories of every length.
func TestGHRShiftPackedEquivalence(t *testing.T) {
	f := func(seed uint64, length uint8, prior uint32) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		hist := int(length%30) + 1
		a, b := NewGHR(hist), NewGHR(hist)
		a.ShiftPacked(32, prior)
		refShiftPacked(b, 32, prior)
		for n := 0; n <= 64; n++ {
			bits := rng.Uint32()
			if n < 32 {
				bits &= 1<<n - 1
			}
			a.ShiftPacked(n, bits)
			refShiftPacked(b, n, bits)
			if a.Value() != b.Value() {
				t.Logf("length %d, n %d, bits %#x: ShiftPacked %#x, per-bit %#x", hist, n, bits, a.Value(), b.Value())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockedLayout(t *testing.T) {
	b := NewBlockedMulti(10, 8, 1, IndexGShare)
	if b.Entries() != 1024 {
		t.Errorf("entries = %d, want 1024", b.Entries())
	}
	if b.Width() != 8 {
		t.Errorf("width = %d, want 8", b.Width())
	}
	// Table 7: PHT cost = 2^10 * 2 * 8 = 16 Kbit.
	if got := b.StateBits(); got != 16*1024 {
		t.Errorf("cost = %d bits, want 16384", got)
	}
}

func TestBlockedIndexing(t *testing.T) {
	b := NewBlockedMulti(10, 8, 1, IndexGShare)
	// gshare: index is history XOR block address, masked.
	if got := b.Index(0x3FF, 0x3FF); got != 0 {
		t.Errorf("Index(3FF,3FF) = %d, want 0", got)
	}
	if got := b.Index(0, 0x1234); got != 0x234 {
		t.Errorf("Index(0,1234) = %x, want 234", got)
	}
}

// Property: updating one (history, block, position) slot never disturbs
// a slot with a different index or position.
func TestBlockedIsolation(t *testing.T) {
	f := func(h1, a1, h2, a2 uint32, p1, p2 uint8) bool {
		b := NewBlockedMulti(8, 8, 1, IndexGShare)
		i1, i2 := b.Index(h1, a1), b.Index(h2, a2)
		q1, q2 := int(p1%8), int(p2%8)
		if i1 == i2 && q1 == q2 {
			return true // same slot, nothing to check
		}
		before := b.CounterAt(i2, q2)
		b.At(i1).Update(q1, true)
		// The update above trained counter position q1 of entry i1;
		// any distinct slot must be untouched.
		return b.CounterAt(i2, q2) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockedTrainsToPattern(t *testing.T) {
	b := NewBlockedMulti(6, 8, 1, IndexGShare)
	// A branch at position 5 of block 0 under constant history 0x15:
	// train taken, expect taken.
	for i := 0; i < 4; i++ {
		b.At(b.Index(0x15, 0)).Update(5, true)
	}
	if !b.At(b.Index(0x15, 0)).Taken(5) {
		t.Error("counter should predict taken after training")
	}
	// A different position in the same entry must still be cold.
	if b.At(b.Index(0x15, 0)).Taken(6) {
		t.Error("untrained position should predict not-taken")
	}
}

func TestScalarEqualCost(t *testing.T) {
	blocked := NewBlockedMulti(10, 8, 1, IndexGShare)
	scalar := NewScalar(10, 8)
	if blocked.StateBits() != scalar.StateBits() {
		t.Errorf("Figure 6 requires equal cost: blocked %d, scalar %d bits",
			blocked.StateBits(), scalar.StateBits())
	}
}

func TestScalarTraining(t *testing.T) {
	s := NewScalar(8, 8)
	addr := uint32(0x123)
	for i := 0; i < 4; i++ {
		s.Update(0x5A, addr, true)
	}
	if !s.Predict(0x5A, addr) {
		t.Error("scalar counter should predict taken after training")
	}
	// A branch in a different bank (different low bits) is isolated.
	if s.Predict(0x5A, addr+1) {
		t.Error("different branch should be cold")
	}
}

// Property: scalar slots for branches with different low address bits
// never collide (they live in different tables).
func TestScalarBankIsolation(t *testing.T) {
	f := func(h uint32, addr uint32) bool {
		s := NewScalar(8, 8)
		a := addr &^ 7 // bank 0
		b := a | 1     // bank 1
		s.Update(h, a, true)
		s.Update(h, a, true)
		return !s.Predict(h, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
