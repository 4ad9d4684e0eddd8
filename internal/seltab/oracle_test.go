package seltab

// The wide-struct select table below is the oracle the packed Table is
// checked against: one Entry struct per table entry, with live (not
// encoded) selectors, the decoder the packed encoding must round-trip
// through, and the struct comparisons sameMux/sameGHR the packed
// Table.SameMux/SameGHR masks must agree with. They live only in tests.

// sameMux reports whether two selectors pick the same multiplexer
// input: source, position and start offset agree.
func sameMux(a, b Selector) bool {
	return a.Source == b.Source && a.Pos == b.Pos && a.StartOff == b.StartOff
}

// sameGHR reports whether two selectors predict the same GHR update:
// not-taken count and taken bit agree.
func sameGHR(a, b Selector) bool {
	return a.NTCount == b.NTCount && a.TakenBit == b.TakenBit
}

// decode unpacks a field produced by Table.Encode, subfield by
// subfield: source(3) | taken(1) | pos(posBits) | nt(ntBits) |
// off(offBits), low bits first.
func (t *Table) decode(v Raw) Selector {
	return Selector{
		Source:   Source(v & 7),
		TakenBit: v>>3&1 == 1,
		Pos:      uint8(v >> 4 & (1<<t.posBits - 1)),
		NTCount:  uint8(v >> (4 + t.posBits) & (1<<t.ntBits - 1)),
		StartOff: uint8(v >> (4 + t.posBits + t.ntBits) & (1<<t.offBits - 1)),
	}
}

// get reads a role through the engine's path — one packed field load —
// decodes it and reports whether the entry is valid.
func get(r Ref, role int) (Selector, bool) {
	v, ok := r.Load(role)
	return r.t.decode(v), ok
}

// set stores a selector through the engine's path: Encode, then SetRaw.
func set(r Ref, role int, s Selector) { r.SetRaw(role, r.t.Encode(s)) }

// valid reports whether the entry has ever been written, from the
// valid bit every role field of the entry carries.
func valid(r Ref) bool {
	_, ok := r.Load(r.t.firstRole)
	return ok
}

// Entry is one select-table entry. Single selection uses only Second;
// double selection uses First too (a "dual select table"); the N-block
// extension uses Third and Fourth for the third and fourth blocks of a
// fetch group.
type Entry struct {
	Valid  bool
	First  Selector
	Second Selector
	Third  Selector
	Fourth Selector
}

// Slot returns the selector predicting the block fetched in role
// (1 = second block of the group, 2 = third, 3 = fourth); role 0 with
// double selection uses First directly.
func (e *Entry) Slot(role int) *Selector {
	switch role {
	case 0:
		return &e.First
	case 1:
		return &e.Second
	case 2:
		return &e.Third
	default:
		return &e.Fourth
	}
}

// refTable is a set of select tables stored as one []Entry,
// numTables * 2^historyBits long.
type refTable struct {
	hBits, tables int
	entries       []Entry
}

func newRefTable(historyBits, numTables int) *refTable {
	return &refTable{hBits: historyBits, tables: numTables, entries: make([]Entry, numTables<<historyBits)}
}

// Lookup returns the live entry for (history, block address); mutations
// write through.
func (r *refTable) Lookup(history, blockAddr uint32) *Entry {
	table := blockAddr & uint32(r.tables-1)
	idx := (history ^ blockAddr) & (1<<r.hBits - 1)
	return &r.entries[table<<r.hBits|idx]
}

func (r *refTable) ValidCount() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].Valid {
			n++
		}
	}
	return n
}
