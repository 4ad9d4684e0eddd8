package pht

import "testing"

func BenchmarkBlockedPredictUpdate(b *testing.B) {
	t := NewBlockedMulti(10, 8, 1, IndexGShare)
	g := NewGHR(10)
	for i := 0; i < b.N; i++ {
		addr := uint32(i * 7)
		taken := i&3 != 0
		e := t.At(t.Index(g.Value(), addr))
		e.Update(int(addr+5)%8, taken)
		_ = e.Taken(int(addr+5) % 8)
		g.Shift(taken)
	}
}

func BenchmarkScalarPredictUpdate(b *testing.B) {
	s := NewScalar(10, 8)
	g := NewGHR(10)
	for i := 0; i < b.N; i++ {
		addr := uint32(i * 13)
		taken := i&1 == 0
		_ = s.Predict(g.Value(), addr)
		s.Update(g.Value(), addr, taken)
		g.Shift(taken)
	}
}
