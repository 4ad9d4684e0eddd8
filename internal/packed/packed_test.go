package packed

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCounter2ArrayBasics(t *testing.T) {
	a := NewCounter2Array(100, 1)
	if a.Len() != 100 || a.StateBits() != 200 || a.Words() != 4 {
		t.Fatalf("geometry: len=%d bits=%d words=%d", a.Len(), a.StateBits(), a.Words())
	}
	for i := 0; i < 100; i++ {
		if a.Get(i) != 1 {
			t.Fatalf("counter %d = %d, want weakly-not-taken init", i, a.Get(i))
		}
	}
	a.Set(0, 3)
	a.Set(99, 0)
	if a.Get(0) != 3 || a.Get(99) != 0 || a.Get(1) != 1 || a.Get(98) != 1 {
		t.Error("Set disturbed a neighbor")
	}
}

func TestCounter2ArraySaturation(t *testing.T) {
	a := NewCounter2Array(4, 1)
	for i := 0; i < 10; i++ {
		a.Update(2, true)
	}
	if a.Get(2) != 3 {
		t.Errorf("saturating up: got %d, want 3", a.Get(2))
	}
	for i := 0; i < 10; i++ {
		a.Update(2, false)
	}
	if a.Get(2) != 0 {
		t.Errorf("saturating down: got %d, want 0", a.Get(2))
	}
	if a.Get(1) != 1 || a.Get(3) != 1 {
		t.Error("Update disturbed a neighbor")
	}
}

func TestCounter2ArrayPanics(t *testing.T) {
	mustPanic(t, "negative length", func() { NewCounter2Array(-1, 0) })
	mustPanic(t, "bad init", func() { NewCounter2Array(4, 4) })
	mustPanic(t, "bad Set value", func() { NewCounter2Array(4, 0).Set(0, 4) })
}

// TestCodeArrayBothWidths covers FieldArray at the BIT code widths:
// 32 two-bit or 21 three-bit codes per word.
func TestCodeArrayBothWidths(t *testing.T) {
	for _, bits := range []int{2, 3} {
		a := NewFieldArray(50, bits)
		if a.StateBits() != 50*bits {
			t.Fatalf("bits=%d: geometry wrong", bits)
		}
		max := uint64(1<<bits - 1)
		for i := 0; i < 50; i++ {
			a.Set(i, uint64(i)&max)
		}
		for i := 0; i < 50; i++ {
			if a.Get(i) != uint64(i)&max {
				t.Fatalf("bits=%d: code %d = %d, want %d", bits, i, a.Get(i), uint64(i)&max)
			}
		}
	}
	// 21 three-bit codes per word: 22 codes need two words.
	if w := NewFieldArray(22, 3).Words(); w != 2 {
		t.Errorf("22 3-bit codes in %d words, want 2", w)
	}
	if w := NewFieldArray(32, 2).Words(); w != 1 {
		t.Errorf("32 2-bit codes in %d words, want 1", w)
	}
}

func TestCodeArrayPanics(t *testing.T) {
	mustPanic(t, "value too wide", func() { NewFieldArray(4, 2).Set(0, 4) })
	mustPanic(t, "ClearRange past the end", func() { NewFieldArray(4, 3).ClearRange(0, 5) })
	mustPanic(t, "ClearRange reversed", func() { NewFieldArray(4, 3).ClearRange(3, 2) })
	mustPanic(t, "ClearRange negative", func() { NewFieldArray(4, 3).ClearRange(-1, 2) })
}

func TestFieldArrayWidths(t *testing.T) {
	for _, width := range []int{1, 3, 7, 13, 17, 23, 32} {
		a := NewFieldArray(40, width)
		if a.Len() != 40 || a.StateBits() != 40*width {
			t.Fatalf("width=%d: geometry wrong", width)
		}
		mask := uint64(1)<<uint(width) - 1
		for i := 0; i < 40; i++ {
			a.Set(i, uint64(i*2654435761)&mask)
		}
		for i := 0; i < 40; i++ {
			if a.Get(i) != uint64(i*2654435761)&mask {
				t.Fatalf("width=%d: field %d mismatch", width, i)
			}
		}
	}
}

func TestFieldArrayPanics(t *testing.T) {
	mustPanic(t, "width 0", func() { NewFieldArray(4, 0) })
	mustPanic(t, "width 33", func() { NewFieldArray(4, 33) })
	mustPanic(t, "negative length", func() { NewFieldArray(-1, 4) })
	mustPanic(t, "value too wide", func() { NewFieldArray(4, 4).Set(0, 16) })
	mustPanic(t, "fill too wide", func() { NewFieldArray(4, 4).Fill(16) })
}

// Property: a Counter2Array behaves exactly like a []uint8 model under
// any interleaving of Set and Update, and neighbors are never
// disturbed.
func TestCounter2ArrayQuickVsModel(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 67 // odd size: exercises the partial tail word
		a := NewCounter2Array(n, 1)
		model := make([]uint8, n)
		for i := range model {
			model[i] = 1
		}
		for _, op := range ops {
			i := int(op>>2) % n
			switch op & 3 {
			case 0:
				a.Update(i, true)
				if model[i] < 3 {
					model[i]++
				}
			case 1:
				a.Update(i, false)
				if model[i] > 0 {
					model[i]--
				}
			default:
				v := uint8(op>>1) & 3
				a.Set(i, v)
				model[i] = v
			}
		}
		for i := range model {
			if a.Get(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: at every width from 1 to 32, FieldArray behaves exactly
// like a []uint64 model under any interleaving of Set, saturating
// Update, ClearRange and Fill, and never disturbs a field an operation
// does not name.
func TestFieldArrayQuickVsModel(t *testing.T) {
	for width := 1; width <= 32; width++ {
		f := func(ops []uint64) bool {
			const n = 45 // leaves a partial tail word at most widths
			a := NewFieldArray(n, width)
			model := make([]uint64, n)
			mask := uint64(1)<<uint(width) - 1
			for _, op := range ops {
				i := int(op >> 2 % n)
				v := op >> 16 & mask
				switch op & 3 {
				case 0:
					a.Set(i, v)
					model[i] = v
				case 1:
					taken := op>>8&1 == 1
					a.Update(i, taken)
					if taken && model[i] < mask {
						model[i]++
					} else if !taken && model[i] > 0 {
						model[i]--
					}
				case 2:
					hi := i + int(op>>8%uint64(n-i+1))
					a.ClearRange(i, hi)
					clear(model[i:hi])
				default:
					a.Fill(v)
					for j := range model {
						model[j] = v
					}
				}
			}
			for i := range model {
				if a.Get(i) != model[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestAlignedWordsPadding pins the false-sharing fix: every backing
// slice is allocated with capacity padded to a whole number of 64-byte
// cache lines (8 words), while the logical length — what Words() and
// the canonical serialized forms see — is unchanged. Padded request
// sizes land in allocator size classes that are multiples of 64 bytes,
// so two predictors' word arrays never share a cache line and parallel
// lanes don't invalidate each other's counters.
func TestAlignedWordsPadding(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 1000} {
		w := alignedWords(n)
		if len(w) != n {
			t.Errorf("alignedWords(%d): len = %d, want %d", n, len(w), n)
		}
		if cap(w)%cacheLineWords != 0 {
			t.Errorf("alignedWords(%d): cap = %d, not a multiple of %d words", n, cap(w), cacheLineWords)
		}
		if cap(w)-len(w) >= cacheLineWords {
			t.Errorf("alignedWords(%d): cap = %d over-pads by a full line", n, cap(w))
		}
	}
	if w := alignedWords(0); w != nil {
		t.Errorf("alignedWords(0) = %v, want nil", w)
	}
}

// TestConstructorsUseAlignedBacking checks the padding reaches both
// array kinds without changing their logical word counts.
func TestConstructorsUseAlignedBacking(t *testing.T) {
	c := NewCounter2Array(100, 1) // 100 counters -> ceil(100/32) = 4 words
	if c.Words() != 4 || cap(c.words) != 8 {
		t.Errorf("Counter2Array(100): words = %d cap = %d, want 4 / 8", c.Words(), cap(c.words))
	}
	f := NewFieldArray(100, 10) // 6 fields/word -> 17 words
	if f.Words() != 17 || cap(f.words)%cacheLineWords != 0 {
		t.Errorf("FieldArray(100,10): words = %d cap = %d, want 17 / multiple of 8", f.Words(), cap(f.words))
	}
	k := NewFieldArray(100, 2) // 32 codes/word -> 4 words
	if k.Words() != 4 || cap(k.words)%cacheLineWords != 0 {
		t.Errorf("FieldArray(100,2): words = %d cap = %d, want 4 / multiple of 8", k.Words(), cap(k.words))
	}
}

// TestInPlaceResetMatchesNew: Fill and a whole-array ClearRange bring
// a scrambled array back to exactly the words an all-zero array holds
// after setting every element one by one, pad and tail bits included,
// without allocating. FieldArray is checked at every width from 1 to
// 32.
func TestInPlaceResetMatchesNew(t *testing.T) {
	for _, n := range []int{1, 20, 21, 22, 31, 32, 33, 100} {
		for init := uint8(0); init < 4; init++ {
			a := NewCounter2Array(n, (init+1)%4)
			for i := 0; i < n; i += 3 {
				a.Set(i, uint8(i)%4)
			}
			if allocs := testing.AllocsPerRun(1, func() { a.Fill(init) }); allocs != 0 {
				t.Errorf("Counter2Array.Fill allocates %v", allocs)
			}
			want := NewCounter2Array(n, 0)
			for i := 0; i < n; i++ {
				want.Set(i, init)
			}
			if !slices.Equal(a.words, want.words) {
				t.Errorf("Counter2Array(%d).Fill(%d) = %x, want %x", n, init, a.words, want.words)
			}
		}
		for width := 1; width <= 32; width++ {
			mask := uint64(1)<<uint(width) - 1
			for _, v := range []uint64{0, 1, mask / 3, mask} {
				f := NewFieldArray(n, width)
				for i := 0; i < n; i++ {
					f.Set(i, uint64(i*2654435761)&mask)
				}
				if allocs := testing.AllocsPerRun(1, func() { f.Fill(v) }); allocs != 0 {
					t.Errorf("FieldArray.Fill allocates %v", allocs)
				}
				want := NewFieldArray(n, width)
				for i := 0; i < n; i++ {
					want.Set(i, v)
				}
				if !slices.Equal(f.words, want.words) {
					t.Errorf("FieldArray(%d, %d).Fill(%#x) = %x, want %x", n, width, v, f.words, want.words)
				}
			}
			k := NewFieldArray(n, width)
			for i := 0; i < n; i++ {
				k.Set(i, uint64(i)&mask)
			}
			if allocs := testing.AllocsPerRun(1, func() { k.ClearRange(0, n) }); allocs != 0 {
				t.Errorf("FieldArray.ClearRange allocates %v", allocs)
			}
			if want := NewFieldArray(n, width); !slices.Equal(k.words, want.words) {
				t.Errorf("FieldArray(%d, %d).ClearRange(0, n) = %x, want %x", n, width, k.words, want.words)
			}
		}
	}
}
