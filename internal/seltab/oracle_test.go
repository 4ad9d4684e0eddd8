package seltab

// The wide-struct select table below is the oracle the packed Table is
// checked against: one Entry struct per table entry, with live (not
// encoded) selectors. It lives only in tests.

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
