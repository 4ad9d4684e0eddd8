package target

import "testing"

func TestNLSGeometry(t *testing.T) {
	n := NewNLS(256, 8, 2)
	if n.Entries() != 256 || n.Width() != 8 || n.StateBits(10) != 2*256*8*10 {
		t.Fatalf("geometry = %d entries, %d wide, %d bits; want 256/8/%d",
			n.Entries(), n.Width(), n.StateBits(10), 2*256*8*10)
	}
}

// TestNLSColdLookup checks the tagless contract: a never-written slot
// still hits, predicting address 0 with no call bit — the misfetch is
// charged downstream when the prediction turns out wrong.
func TestNLSColdLookup(t *testing.T) {
	n := NewNLS(64, 8, 1)
	tgt, call, hit := n.Lookup(0x123, 5, 0)
	if !hit || tgt != 0 || call {
		t.Errorf("cold lookup = (%#x, %v, %v), want (0, false, true)", tgt, call, hit)
	}
}

// TestNLSIndexAliasing checks direct-mapped indexing on power-of-two
// entries: addresses congruent modulo the entry count share a slot,
// addresses differing in the low bits do not.
func TestNLSIndexAliasing(t *testing.T) {
	cases := []struct {
		wrote, read       uint32
		wrotePos, readPos int
		wantTarget        uint32 // 0 = expect the slot untouched
	}{
		{wrote: 1, read: 1, wrotePos: 0, readPos: 0, wantTarget: 100},           // same slot
		{wrote: 1, read: 5, wrotePos: 0, readPos: 0, wantTarget: 100},           // 5 ≡ 1 (mod 4): alias
		{wrote: 1, read: 9, wrotePos: 0, readPos: 0, wantTarget: 100},           // 9 ≡ 1 (mod 4): alias
		{wrote: 1, read: 2, wrotePos: 0, readPos: 0, wantTarget: 0},             // different entry
		{wrote: 1, read: 1, wrotePos: 0, readPos: 1, wantTarget: 0},             // different position
		{wrote: 0xFF01, read: 0xAB01, wrotePos: 3, readPos: 3, wantTarget: 100}, // high bits ignored
	}
	for _, c := range cases {
		n := NewNLS(4, 8, 1)
		n.Update(c.wrote, c.wrotePos, 0, 100, false)
		got, _, hit := n.Lookup(c.read, c.readPos, 0)
		if !hit {
			t.Errorf("write %#x@%d read %#x@%d: tagless lookup must hit",
				c.wrote, c.wrotePos, c.read, c.readPos)
		}
		if got != c.wantTarget {
			t.Errorf("write %#x@%d read %#x@%d: target %d, want %d",
				c.wrote, c.wrotePos, c.read, c.readPos, got, c.wantTarget)
		}
	}
}

// TestNLSDuplicationAcrossArrays checks §3.1's per-target-number
// duplication: the same (address, position) slot trained in array t is
// invisible to every other array, for dual and N-block group sizes.
func TestNLSDuplicationAcrossArrays(t *testing.T) {
	for _, blocks := range []int{2, 3, 4} {
		n := NewNLS(16, 8, blocks)
		for tn := 0; tn < blocks; tn++ {
			n.Update(3, 2, tn, uint32(1000+tn), false)
		}
		for tn := 0; tn < blocks; tn++ {
			got, _, _ := n.Lookup(3, 2, tn)
			if got != uint32(1000+tn) {
				t.Errorf("blocks=%d array %d: target %d, want %d", blocks, tn, got, 1000+tn)
			}
		}
		// Training array 0 again must not leak into array 1.
		n.Update(3, 2, 0, 7777, false)
		if got, _, _ := n.Lookup(3, 2, 1); got != 1001 {
			t.Errorf("blocks=%d: array 1 disturbed by array 0 update: %d", blocks, got)
		}
	}
}

// TestCallBitRoundTrip checks both implementations carry the call bit
// through a store/load cycle and clear it when the slot is retrained
// with a non-call.
func TestCallBitRoundTrip(t *testing.T) {
	arrays := map[string]Array{
		"NLS": NewNLS(32, 8, 2),
		"BTB": NewBTB(32, 8, 4),
	}
	for name, a := range arrays {
		a.Update(5, 3, 1, 200, true)
		if _, call, hit := a.Lookup(5, 3, 1); !hit || !call {
			t.Errorf("%s: call bit lost: call=%v hit=%v", name, call, hit)
		}
		a.Update(5, 3, 1, 200, false)
		if _, call, _ := a.Lookup(5, 3, 1); call {
			t.Errorf("%s: call bit not cleared by non-call retrain", name)
		}
	}
}

func TestBTBGeometry(t *testing.T) {
	b := NewBTB(32, 8, 4)
	if b.Entries() != 32 || b.Sets() != 8 || b.Width() != 8 {
		t.Fatalf("geometry = %d entries, %d sets, %d wide; want 32/8/8",
			b.Entries(), b.Sets(), b.Width())
	}
}

// TestBTBMissSemantics checks the tagged contract: cold sets, tag
// mismatches, target-number mismatches, and tag-matching entries whose
// position was never written all miss.
func TestBTBMissSemantics(t *testing.T) {
	b := NewBTB(8, 8, 4) // 2 sets
	if _, _, hit := b.Lookup(0, 0, 0); hit {
		t.Error("cold BTB must miss")
	}
	b.Update(2, 1, 0, 300, false)
	cases := []struct {
		name string
		addr uint32
		pos  int
		tn   int
		want bool
	}{
		{"exact", 2, 1, 0, true},
		{"alias same set, other tag", 6, 1, 0, false},
		{"other target number", 2, 1, 1, false},
		{"unwritten position", 2, 4, 0, false},
		{"other set", 3, 1, 0, false},
	}
	for _, c := range cases {
		if _, _, hit := b.Lookup(c.addr, c.pos, c.tn); hit != c.want {
			t.Errorf("%s: hit=%v, want %v", c.name, hit, c.want)
		}
	}
}

// TestBTBTargetNumberTag checks the target-number tag bit: the same
// block address trained under target numbers 0 and 1 occupies two
// distinct ways with independent targets.
func TestBTBTargetNumberTag(t *testing.T) {
	b := NewBTB(4, 8, 4) // one set
	b.Update(9, 0, 0, 111, false)
	b.Update(9, 0, 1, 222, false)
	if got, _, hit := b.Lookup(9, 0, 0); !hit || got != 111 {
		t.Errorf("target number 0: (%d, %v), want (111, hit)", got, hit)
	}
	if got, _, hit := b.Lookup(9, 0, 1); !hit || got != 222 {
		t.Errorf("target number 1: (%d, %v), want (222, hit)", got, hit)
	}
}

// TestBTB4WayLRUEvictionOrder fills one set of a 4-way BTB, refreshes
// some entries by lookup and update, and checks exactly the least
// recently used tags are evicted by subsequent allocations.
func TestBTB4WayLRUEvictionOrder(t *testing.T) {
	b := NewBTB(4, 8, 4) // one set of 4 ways; tags 0,4,8,... all map to it
	for i, addr := range []uint32{10, 20, 30, 40} {
		b.Update(addr, 0, 0, uint32(100+i), false)
	}
	// LRU order now 10 < 20 < 30 < 40. Touch 10 by lookup and 20 by
	// update: order becomes 30 < 40 < 10 < 20.
	if _, _, hit := b.Lookup(10, 0, 0); !hit {
		t.Fatal("entry 10 should be resident")
	}
	b.Update(20, 0, 0, 999, false)

	b.Update(50, 0, 0, 500, false) // evicts 30
	if _, _, hit := b.Lookup(30, 0, 0); hit {
		t.Error("30 should be the first eviction")
	}
	b.Update(60, 0, 0, 600, false) // evicts 40
	if _, _, hit := b.Lookup(40, 0, 0); hit {
		t.Error("40 should be the second eviction")
	}
	// The refreshed entries and the new ones survive.
	for _, addr := range []uint32{10, 20, 50, 60} {
		if _, _, hit := b.Lookup(addr, 0, 0); !hit {
			t.Errorf("%d should have survived the evictions", addr)
		}
	}
}

// TestBTBEvictionClearsPositions checks an allocation that recycles a
// way does not leak the previous tenant's per-position targets.
func TestBTBEvictionClearsPositions(t *testing.T) {
	b := NewBTB(1, 8, 1) // single way: every update allocates over the last
	b.Update(1, 2, 0, 123, true)
	b.Update(9, 5, 0, 456, false) // same set, new tag: evicts tag 1
	if _, _, hit := b.Lookup(9, 2, 0); hit {
		t.Error("position 2 belongs to the evicted tag and must miss")
	}
	if got, call, hit := b.Lookup(9, 5, 0); !hit || got != 456 || call {
		t.Errorf("fresh entry = (%d, %v, %v), want (456, false, true)", got, call, hit)
	}
}
