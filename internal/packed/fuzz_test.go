package packed

import "testing"

// The fuzz targets drive each packed array and a naive wide-value slice
// model with the same operation stream decoded from raw bytes, then
// require every element to match — the same oracle the engine-level
// differential tests use, at the primitive level. Seed inputs live
// under testdata/fuzz/.

// FuzzCounter2Array cross-checks the 2-bit counter array against a
// []uint8 model under arbitrary Get/Set/Update interleavings.
func FuzzCounter2Array(f *testing.F) {
	f.Add(33, []byte{0x00, 0x41, 0x82, 0xc3, 0xff})
	f.Add(1, []byte{0x01, 0x02, 0x03})
	f.Add(64, []byte{0xaa, 0x55, 0x0f, 0xf0, 0x99, 0x66})
	f.Fuzz(func(t *testing.T, n int, ops []byte) {
		n = clampLen(n)
		a := NewCounter2Array(n, 1)
		model := make([]uint8, n)
		for i := range model {
			model[i] = 1
		}
		for k := 0; k+1 < len(ops); k += 2 {
			i := int(ops[k]) % n
			arg := ops[k+1]
			switch arg & 3 {
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
				v := arg >> 2 & 3
				a.Set(i, v)
				model[i] = v
			}
			if got := a.Get(i); got != model[i] {
				t.Fatalf("op %d: counter %d = %d, model %d", k/2, i, got, model[i])
			}
		}
		for i := range model {
			if a.Get(i) != model[i] {
				t.Fatalf("final state: counter %d = %d, model %d", i, a.Get(i), model[i])
			}
		}
	})
}

// FuzzCodeArray cross-checks FieldArray at the BIT code widths, 2 and
// 3 bits, against a []uint8 model under Set and ClearRange. An op is
// two bytes: the index, then the value, or — with the top bit set — a
// ClearRange from the index whose length comes from the low seven
// bits, long enough to span whole words.
func FuzzCodeArray(f *testing.F) {
	f.Add(21, true, []byte{0x00, 0x07, 0x15, 0x3f})
	f.Add(32, false, []byte{0x01, 0x02, 0x03, 0xfe})
	f.Add(5, true, []byte{0xff, 0x80, 0x40})
	f.Add(100, true, []byte{0x14, 0x07, 0x15, 0x06, 0x40, 0x05, 0x13, 0xbf})
	f.Fuzz(func(t *testing.T, n int, wide bool, ops []byte) {
		n = clampLen(n)
		bits := 2
		if wide {
			bits = 3
		}
		a := NewFieldArray(n, bits)
		model := make([]uint8, n)
		max := uint8(1<<bits - 1)
		for k := 0; k+1 < len(ops); k += 2 {
			i := int(ops[k]) % n
			if arg := ops[k+1]; arg&0x80 != 0 {
				hi := i + int(arg&0x7f)%(n-i+1)
				a.ClearRange(i, hi)
				clear(model[i:hi])
				for j := range model {
					if a.Get(j) != uint64(model[j]) {
						t.Fatalf("op %d: ClearRange(%d, %d): code %d = %d, model %d", k/2, i, hi, j, a.Get(j), model[j])
					}
				}
				continue
			}
			v := ops[k+1] & max
			a.Set(i, uint64(v))
			model[i] = v
			if got := a.Get(i); got != uint64(v) {
				t.Fatalf("op %d: code %d = %d, want %d", k/2, i, got, v)
			}
		}
		for i := range model {
			if a.Get(i) != uint64(model[i]) {
				t.Fatalf("final state: code %d = %d, model %d", i, a.Get(i), model[i])
			}
		}
	})
}

// FuzzFieldArray cross-checks fields of every supported width against a
// []uint64 model.
func FuzzFieldArray(f *testing.F) {
	f.Add(17, 13, []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add(4, 1, []byte{0xff, 0x00, 0xff})
	f.Add(9, 32, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89})
	f.Fuzz(func(t *testing.T, n, width int, ops []byte) {
		n = clampLen(n)
		width = abs(width)%32 + 1
		a := NewFieldArray(n, width)
		model := make([]uint64, n)
		mask := uint64(1)<<uint(width) - 1
		for k := 0; k+4 < len(ops); k += 5 {
			i := int(ops[k]) % n
			v := (uint64(ops[k+1]) | uint64(ops[k+2])<<8 |
				uint64(ops[k+3])<<16 | uint64(ops[k+4])<<24) & mask
			a.Set(i, v)
			model[i] = v
			if got := a.Get(i); got != v {
				t.Fatalf("op %d: field %d = %#x, want %#x", k/5, i, got, v)
			}
		}
		for i := range model {
			if a.Get(i) != model[i] {
				t.Fatalf("final state: field %d = %#x, model %#x", i, a.Get(i), model[i])
			}
		}
	})
}

// clampLen folds an arbitrary fuzzed int into a usable array length
// that still exercises word-boundary and tail cases.
func clampLen(n int) int {
	n = abs(n)%257 + 1
	return n
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // math.MinInt
			return 1
		}
		return -n
	}
	return n
}
