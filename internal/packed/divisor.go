package packed

import "math/bits"

// Divisor divides 32-bit numerators by a divisor fixed at construction
// without a hardware divide: the quotient and remainder come from
// multiplications by the precomputed 64-bit reciprocal
// m = ceil(2^64 / d) (Lemire, Kaser and Kurz, "Faster Remainder by
// Direct Computation", 2019). With 64-bit fractions the result is exact
// for every divisor d >= 1 and every numerator in [0, 2^32):
//
//	n / d = floor(m * n / 2^64)              (high word of m * n)
//	n % d = floor((m * n mod 2^64) * d / 2^64) (high word of lo * d)
//
// For d = 1 the reciprocal 2^64 does not fit in 64 bits; m wraps to 0,
// which still yields the right remainder (0), and DivMod adds n back
// to the quotient through a mask that is all-ones only for d = 1, so
// neither method branches. The predictor structures build one Divisor
// per divisor fixed at construction (fields per word, entries, sets,
// block width) so the per-block path issues no DIV instruction.
type Divisor struct {
	m   uint64 // ceil(2^64 / d), 0 for d = 1
	d   uint32
	one uint32 // 0xffffffff for d = 1, else 0
}

// NewDivisor returns the reciprocal form of d. It panics if d is zero.
func NewDivisor(d uint32) Divisor {
	if d == 0 {
		panic("packed: NewDivisor(0): division by zero")
	}
	v := Divisor{m: ^uint64(0)/uint64(d) + 1, d: d}
	if d == 1 {
		v.one = ^uint32(0)
	}
	return v
}

// D returns the divisor.
func (v Divisor) D() uint32 { return v.d }

// Mod returns n % d.
func (v Divisor) Mod(n uint32) uint32 {
	hi, _ := bits.Mul64(v.m*uint64(n), uint64(v.d))
	return uint32(hi)
}

// DivMod returns n / d and n % d from one shared multiplication.
func (v Divisor) DivMod(n uint32) (q, r uint32) {
	hi, lo := bits.Mul64(v.m, uint64(n))
	r64, _ := bits.Mul64(lo, uint64(v.d))
	return uint32(hi) + n&v.one, uint32(r64)
}
