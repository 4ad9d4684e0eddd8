package packed

import "testing"

// The tests named Counter3Array cover FieldArray at width 3 used as the
// tagged-geometric predictor's 3-bit saturating counters (0 strongly
// not-taken .. 7 strongly taken, taken = value >= 4), 21 per word with
// one pad bit.

// newCounters3 returns n 3-bit counters all set to init.
func newCounters3(n int, init uint64) *FieldArray {
	a := NewFieldArray(n, 3)
	a.Fill(init)
	return a
}

func TestCounter3ArrayBasics(t *testing.T) {
	a := newCounters3(45, 4)
	if a.Len() != 45 {
		t.Fatalf("Len = %d, want 45", a.Len())
	}
	if a.StateBits() != 135 {
		t.Fatalf("StateBits = %d, want 135", a.StateBits())
	}
	// 45 counters at 21 per word = 3 words, padded to a cache line.
	if a.Words() != 3 {
		t.Fatalf("Words = %d, want 3", a.Words())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != 4 {
			t.Fatalf("counter %d init = %d, want 4", i, a.Get(i))
		}
	}
	a.Set(20, 7) // last slot of word 0
	a.Set(21, 0) // first slot of word 1
	if a.Get(20) != 7 || a.Get(21) != 0 || a.Get(19) != 4 || a.Get(22) != 4 {
		t.Fatalf("neighbor counters disturbed: %d %d %d %d",
			a.Get(19), a.Get(20), a.Get(21), a.Get(22))
	}
	if a.words[0]>>63 != 0 || a.words[1]>>63 != 0 {
		t.Fatalf("pad bits set: %x", a.words)
	}
}

func TestCounter3ArraySaturation(t *testing.T) {
	a := newCounters3(3, 3)
	for i := 0; i < 20; i++ {
		a.Update(0, true)
		a.Update(1, false)
	}
	if a.Get(0) != 7 {
		t.Fatalf("saturating up: %d, want 7", a.Get(0))
	}
	if a.Get(1) != 0 {
		t.Fatalf("saturating down: %d, want 0", a.Get(1))
	}
	if a.Get(2) != 3 {
		t.Fatalf("untouched counter moved: %d, want 3", a.Get(2))
	}
}

func TestCounter3ArrayPanics(t *testing.T) {
	a := NewFieldArray(4, 3)
	mustPanic(t, "bad Fill value", func() { a.Fill(8) })
	mustPanic(t, "bad Set value", func() { a.Set(0, 8) })
}

func TestCounter2ArrayAgeHalve(t *testing.T) {
	a := NewCounter2Array(70, 0)
	model := make([]uint8, 70)
	for i := range model {
		v := uint8(i % 4)
		a.Set(i, v)
		model[i] = v
	}
	a.AgeHalve()
	for i := range model {
		if got, want := a.Get(i), model[i]/2; got != want {
			t.Fatalf("counter %d after AgeHalve = %d, want %d", i, got, want)
		}
	}
	// Second halving drives everything to zero (values were <= 3).
	a.AgeHalve()
	for i := range model {
		if a.Get(i) != 0 {
			t.Fatalf("counter %d after two AgeHalves = %d, want 0", i, a.Get(i))
		}
	}
}

// FuzzCounter3Array cross-checks FieldArray at width 3, driven as
// saturating counters (Update, Set, Fill), against a []uint8 model,
// same scheme as FuzzCounter2Array. An op is two bytes, the index then
// the argument: its low two bits pick Update taken, Update not taken,
// Set, or — with the top bit also set — a Fill of the whole array.
func FuzzCounter3Array(f *testing.F) {
	f.Add(21, []byte{0x00, 0x41, 0x82, 0xc3, 0xff})
	f.Add(1, []byte{0x01, 0x02, 0x03})
	f.Add(50, []byte{0xaa, 0x55, 0x0f, 0xf0, 0x99, 0x66})
	f.Fuzz(func(t *testing.T, n int, ops []byte) {
		n = clampLen(n)
		a := newCounters3(n, 3)
		model := make([]uint8, n)
		for i := range model {
			model[i] = 3
		}
		for k := 0; k+1 < len(ops); k += 2 {
			i := int(ops[k]) % n
			arg := ops[k+1]
			switch {
			case arg&3 == 0:
				a.Update(i, true)
				if model[i] < 7 {
					model[i]++
				}
			case arg&3 == 1:
				a.Update(i, false)
				if model[i] > 0 {
					model[i]--
				}
			case arg&0x83 == 0x83:
				v := arg >> 2 & 7
				a.Fill(uint64(v))
				for j := range model {
					model[j] = v
				}
			default:
				v := arg >> 2 & 7
				a.Set(i, uint64(v))
				model[i] = v
			}
			if got := a.Get(i); got != uint64(model[i]) {
				t.Fatalf("op %d: counter %d = %d, model %d", k/2, i, got, model[i])
			}
		}
		for i := range model {
			if a.Get(i) != uint64(model[i]) {
				t.Fatalf("final state: counter %d = %d, model %d", i, a.Get(i), model[i])
			}
		}
	})
}
