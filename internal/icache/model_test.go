package icache

import (
	"testing"
	"testing/quick"
)

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(100, 4); err == nil {
		t.Error("non-power-of-two lines should fail")
	}
	if _, err := NewModel(64, 3); err == nil {
		t.Error("non-dividing associativity should fail")
	}
	if _, err := NewModel(64, 4); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	m, err := NewModel(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Access(5) {
		t.Error("cold access should miss")
	}
	if !m.Access(5) {
		t.Error("second access should hit")
	}
	m.Reset()
	if m.Access(5) {
		t.Error("access after Reset should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 lines, 2-way: one set. Insert a, b; touch a; insert c evicts b.
	m, err := NewModel(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(10)
	m.Access(20)
	m.Access(10)
	m.Access(30) // evicts 20
	if !m.Access(10) {
		t.Error("10 should survive (recently used)")
	}
	if m.Access(20) {
		t.Error("20 should have been evicted")
	}
}

// Property: a working set that fits the cache never misses after the
// first pass.
func TestWorkingSetFits(t *testing.T) {
	f := func(seed uint32) bool {
		m, err := NewModel(64, 4)
		if err != nil {
			return false
		}
		// 32 consecutive lines spread evenly across the 16 sets (two
		// per set, within the 4-way associativity).
		base := seed % 1024
		for i := uint32(0); i < 32; i++ {
			m.Access(base + i)
		}
		for i := uint32(0); i < 32; i++ {
			if !m.Access(base + i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
