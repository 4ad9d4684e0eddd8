package target

// Property tests: both Array implementations are equivalence-checked
// against deliberately naive map-backed reference models under random
// Update/Lookup streams (testing/quick, per DESIGN.md's convention),
// and FuzzTargetArray drives the same invariant from fuzzed byte
// streams.

import (
	"testing"
	"testing/quick"
)

// refOp is one step of a random stream. Fields are reduced into range
// by the harness before use.
type refOp struct {
	IsUpdate  bool
	Addr      uint32
	Pos       uint8
	TargetNum uint8
	Target    uint32
	Call      bool
}

type refKey struct {
	entry, pos, tn int
}

// refSlot is one stored (target, call bit) pair of the reference models.
type refSlot struct {
	target uint32
	call   bool
}

// refNLS is the executable specification of the tagless array: a map
// from (address mod entries, position, target number) to the last
// value stored; absent keys read as (0, false); every lookup hits.
type refNLS struct {
	entries, width int
	m              map[refKey]refSlot
}

func (r *refNLS) key(addr uint32, pos, tn int) refKey {
	return refKey{entry: int(addr % uint32(r.entries)), pos: pos % r.width, tn: tn}
}

func (r *refNLS) update(addr uint32, pos, tn int, tgt uint32, call bool) {
	r.m[r.key(addr, pos, tn)] = refSlot{target: tgt, call: call}
}

func (r *refNLS) lookup(addr uint32, pos, tn int) (uint32, bool, bool) {
	s := r.m[r.key(addr, pos, tn)]
	return s.target, s.call, true
}

// refBTB is the executable specification of the tagged buffer: per
// set, a list of (tag, target number) entries in most-recently-used
// order, each holding a position map; length capped at the
// associativity by dropping the tail.
type refBTBEntry struct {
	tag uint32
	tn  int
	pos map[int]refSlot
}

type refBTB struct {
	sets, assoc, width int
	lru                [][]refBTBEntry
}

func newRefBTB(entries, width, assoc int) *refBTB {
	return &refBTB{sets: entries / assoc, assoc: assoc, width: width,
		lru: make([][]refBTBEntry, entries/assoc)}
}

func (r *refBTB) find(set []refBTBEntry, tag uint32, tn int) int {
	for i, e := range set {
		if e.tag == tag && e.tn == tn {
			return i
		}
	}
	return -1
}

func (r *refBTB) update(addr uint32, pos, tn int, tgt uint32, call bool) {
	s := int(addr % uint32(r.sets))
	set := r.lru[s]
	i := r.find(set, addr, tn)
	var e refBTBEntry
	if i >= 0 {
		e = set[i]
		set = append(set[:i], set[i+1:]...)
	} else {
		e = refBTBEntry{tag: addr, tn: tn, pos: map[int]refSlot{}}
	}
	e.pos[pos%r.width] = refSlot{target: tgt, call: call}
	set = append([]refBTBEntry{e}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.lru[s] = set
}

func (r *refBTB) lookup(addr uint32, pos, tn int) (uint32, bool, bool) {
	s := int(addr % uint32(r.sets))
	set := r.lru[s]
	i := r.find(set, addr, tn)
	if i < 0 {
		return 0, false, false
	}
	e := set[i]
	slot, ok := e.pos[pos%r.width]
	if !ok {
		return 0, false, false
	}
	// A hit refreshes the LRU standing, like the real array.
	set = append(set[:i], set[i+1:]...)
	r.lru[s] = append([]refBTBEntry{e}, set...)
	return slot.target, slot.call, true
}

// applyOps runs one op stream through an implementation and a
// reference in lockstep, reporting the first divergence.
func applyOps(t testing.TB, name string, ops []refOp, blocks int,
	impl Array,
	refUpdate func(uint32, int, int, uint32, bool),
	refLookup func(uint32, int, int) (uint32, bool, bool),
) bool {
	t.Helper()
	for i, op := range ops {
		pos := int(op.Pos) % 8
		tn := int(op.TargetNum) % blocks
		if op.IsUpdate {
			impl.Update(op.Addr, pos, tn, op.Target, op.Call)
			refUpdate(op.Addr, pos, tn, op.Target, op.Call)
			continue
		}
		gt, gc, gh := impl.Lookup(op.Addr, pos, tn)
		wt, wc, wh := refLookup(op.Addr, pos, tn)
		if gt != wt || gc != wc || gh != wh {
			t.Logf("%s: op %d Lookup(%#x, %d, %d) = (%d, %v, %v), reference (%d, %v, %v)",
				name, i, op.Addr, pos, tn, gt, gc, gh, wt, wc, wh)
			return false
		}
	}
	return true
}

// TestNLSMatchesReference checks the tagless array tracks the map
// model exactly under random streams, for 1-4 blocks per group.
func TestNLSMatchesReference(t *testing.T) {
	f := func(ops []refOp, blocksRaw uint8) bool {
		blocks := int(blocksRaw)%4 + 1
		impl := NewNLS(64, 8, blocks)
		ref := &refNLS{entries: 64, width: 8, m: map[refKey]refSlot{}}
		return applyOps(t, "NLS", ops, blocks, impl, ref.update, ref.lookup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBTBMatchesReference checks the tagged array tracks the LRU list
// model exactly under random streams. A small address space and a
// 2-way, 4-entry buffer force constant eviction traffic.
func TestBTBMatchesReference(t *testing.T) {
	f := func(ops []refOp, blocksRaw uint8) bool {
		blocks := int(blocksRaw)%4 + 1
		for i := range ops {
			ops[i].Addr %= 32 // small space: exercise aliasing and eviction
		}
		impl := NewBTB(4, 8, 2)
		ref := newRefBTB(4, 8, 2)
		return applyOps(t, "BTB", ops, blocks, impl, ref.update, ref.lookup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// decodeOps turns a fuzzed byte stream into an op stream: 8 bytes per
// op (op kind+call, addr×2, pos, target number, target×3).
func decodeOps(data []byte) []refOp {
	var ops []refOp
	for len(data) >= 8 {
		ops = append(ops, refOp{
			IsUpdate:  data[0]&1 == 1,
			Call:      data[0]&2 == 2,
			Addr:      uint32(data[1])<<8 | uint32(data[2]),
			Pos:       data[3],
			TargetNum: data[4],
			Target:    uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]),
		})
		data = data[8:]
	}
	return ops
}

// FuzzTargetArray asserts the reference-model invariant from fuzzed
// operation streams, for both implementations at once.
func FuzzTargetArray(f *testing.F) {
	f.Add([]byte{1, 0, 5, 3, 0, 0, 1, 200, 0, 0, 5, 3, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0, 50, 1, 0, 9, 0, 1, 0, 0, 60, 0, 0, 1, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		const blocks = 2
		nls := NewNLS(16, 8, blocks)
		nlsRef := &refNLS{entries: 16, width: 8, m: map[refKey]refSlot{}}
		if !applyOps(t, "NLS", ops, blocks, nls, nlsRef.update, nlsRef.lookup) {
			t.Fatal("NLS diverged from its reference model")
		}
		btb := NewBTB(8, 8, 4)
		btbRef := newRefBTB(8, 8, 4)
		if !applyOps(t, "BTB", ops, blocks, btb, btbRef.update, btbRef.lookup) {
			t.Fatal("BTB diverged from its reference model")
		}
	})
}
