package bitable

// refTable is the wide-slice BIT table the packed Table is checked
// against: one Code byte per line position, with live (not decoded)
// lookups. It lives only in tests.
type refTable struct {
	lineSize int
	owners   []uint32
	codes    []Code // entries * lineSize, flat
}

func newRefTable(entries, lineSize int) *refTable {
	r := &refTable{lineSize: lineSize, owners: make([]uint32, entries), codes: make([]Code, entries*lineSize)}
	for i := range r.owners {
		r.owners[i] = invalidOwner
	}
	return r
}

func (r *refTable) Lookup(lineAddr uint32) ([]Code, bool) {
	i := int(lineAddr) & (len(r.owners) - 1)
	if r.owners[i] == invalidOwner {
		return nil, false
	}
	off := i * r.lineSize
	return r.codes[off : off+r.lineSize], r.owners[i] == lineAddr
}

func (r *refTable) Fill(lineAddr uint32, codes []Code, known []bool) {
	i := int(lineAddr) & (len(r.owners) - 1)
	line := r.codes[i*r.lineSize : (i+1)*r.lineSize]
	if r.owners[i] != lineAddr {
		for j := range line {
			line[j] = CodePlain
		}
		r.owners[i] = lineAddr
	}
	for j := range line {
		if known[j] {
			line[j] = codes[j]
		}
	}
}
