package packed

import (
	"math"
	"math/rand"
	"testing"
)

// checkDivisor compares one numerator against Go's / and %.
func checkDivisor(t *testing.T, v Divisor, n uint32) {
	t.Helper()
	d := v.D()
	q, r := v.DivMod(n)
	if q != n/d || r != n%d || v.Mod(n) != n%d {
		t.Fatalf("d=%d n=%d: DivMod=(%d,%d) Mod=%d, want (%d,%d)",
			d, n, q, r, v.Mod(n), n/d, n%d)
	}
}

// TestDivisorTable checks every divisor 1..4096 at the numerators where
// a reciprocal is most likely to be off by one — around 0, around d and
// around every tenth multiple of d, and at the 32-bit extremes — plus
// random numerators.
func TestDivisorTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := uint32(1); d <= 4096; d++ {
		v := NewDivisor(d)
		if v.D() != d {
			t.Fatalf("D() = %d, want %d", v.D(), d)
		}
		for _, n := range []uint32{0, 1, d - 1, d, d + 1, math.MaxUint32, math.MaxUint32 - 1} {
			checkDivisor(t, v, n)
		}
		for k := uint64(2); k*uint64(d) <= math.MaxUint32; k = k*10 + 1 {
			kd := uint32(k * uint64(d))
			checkDivisor(t, v, kd-1)
			checkDivisor(t, v, kd)
			if kd < math.MaxUint32 {
				checkDivisor(t, v, kd+1)
			}
		}
		for i := 0; i < 64; i++ {
			checkDivisor(t, v, rng.Uint32())
		}
	}
}

// TestDivisorRandomPairs covers the full 32-bit divisor range, where
// the reciprocal's precision matters most.
func TestDivisorRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200_000; i++ {
		d := rng.Uint32()>>uint(rng.Intn(32)) | 1<<uint(rng.Intn(2)) // never 0
		checkDivisor(t, NewDivisor(d), rng.Uint32())
	}
	for _, d := range []uint32{math.MaxUint32, math.MaxUint32 - 1, 1 << 31, 1<<31 + 1, 1<<31 - 1} {
		v := NewDivisor(d)
		for _, n := range []uint32{0, 1, d - 1, d, math.MaxUint32} {
			checkDivisor(t, v, n)
		}
	}
}

func TestDivisorZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDivisor(0) did not panic")
		}
	}()
	NewDivisor(0)
}

// FuzzDivisor cross-checks the reciprocal quotient and remainder
// against Go's / and % for arbitrary (divisor, numerator) pairs.
func FuzzDivisor(f *testing.F) {
	f.Add(uint32(7), uint32(100))
	f.Add(uint32(1), uint32(math.MaxUint32))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32-1))
	f.Fuzz(func(t *testing.T, d, n uint32) {
		if d == 0 {
			return
		}
		checkDivisor(t, NewDivisor(d), n)
	})
}

// benchDivisor is a variable so the compiler cannot strength-reduce
// the hardware divide it is timed against.
var benchDivisor uint32 = 21

// BenchmarkDivisor times a dependent chain of reciprocal DivMods
// against the hardware divide it replaces.
func BenchmarkDivisor(b *testing.B) {
	d := benchDivisor
	b.Run("reciprocal", func(b *testing.B) {
		v := NewDivisor(d)
		x := uint32(12345)
		for i := 0; i < b.N; i++ {
			q, r := v.DivMod(x + uint32(i))
			x = q ^ r
		}
		sink = x
	})
	b.Run("hardware", func(b *testing.B) {
		x := uint32(12345)
		for i := 0; i < b.N; i++ {
			n := x + uint32(i)
			x = n/d ^ n%d
		}
		sink = x
	})
}

var sink uint32
