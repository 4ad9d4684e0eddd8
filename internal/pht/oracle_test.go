package pht

// The wide-slice models below are the oracles the packed Blocked and
// Scalar tables are checked against: one Counter byte per counter,
// indexed straight from the definitions in blocked.go and scalar.go.
// They live only in tests.

// refBlocked is a blocked PHT stored as one []Counter,
// tables * 2^historyBits * width long.
type refBlocked struct {
	hBits, width, tables int
	tblShift             uint
	mode                 IndexMode
	counters             []Counter
}

func newRefBlocked(historyBits, blockWidth, numTables int, mode IndexMode) *refBlocked {
	r := &refBlocked{hBits: historyBits, width: blockWidth, tables: numTables, mode: mode}
	for 1<<r.tblShift < numTables {
		r.tblShift++
	}
	r.counters = make([]Counter, numTables<<historyBits*blockWidth)
	for i := range r.counters {
		r.counters[i] = WeaklyNotTaken
	}
	return r
}

// entry returns the live counters of the entry (history, blockAddr)
// selects.
func (r *refBlocked) entry(history, blockAddr uint32) []Counter {
	idx := history
	if r.mode == IndexGShare {
		idx ^= blockAddr >> r.tblShift
	}
	idx &= 1<<r.hBits - 1
	table := blockAddr & uint32(r.tables-1)
	off := int(table<<r.hBits|idx) * r.width
	return r.counters[off : off+r.width]
}

func (r *refBlocked) Predict(history, blockAddr, instAddr uint32) bool {
	return r.entry(history, blockAddr)[int(instAddr)%r.width].Taken()
}

func (r *refBlocked) Update(history, blockAddr, instAddr uint32, taken bool) {
	e := r.entry(history, blockAddr)
	pos := int(instAddr) % r.width
	e[pos] = step(e[pos], taken)
}

// counterAt mirrors Blocked.CounterAt.
func (r *refBlocked) counterAt(index uint32, pos int) Counter {
	return r.counters[int(index)*r.width+pos]
}

// refScalar is the Figure 6 scalar baseline stored as one []Counter,
// tables * 2^historyBits long.
type refScalar struct {
	hBits, tables int
	selShift      uint
	counters      []Counter
}

func newRefScalar(historyBits, numTables int) *refScalar {
	r := &refScalar{hBits: historyBits, tables: numTables}
	for 1<<r.selShift < numTables {
		r.selShift++
	}
	r.counters = make([]Counter, numTables<<historyBits)
	for i := range r.counters {
		r.counters[i] = WeaklyNotTaken
	}
	return r
}

func (r *refScalar) slot(history, branchAddr uint32) int {
	table := branchAddr & uint32(r.tables-1)
	idx := (history ^ branchAddr>>r.selShift) & (1<<r.hBits - 1)
	return int(table<<r.hBits | idx)
}

func (r *refScalar) Predict(history, branchAddr uint32) bool {
	return r.counters[r.slot(history, branchAddr)].Taken()
}

func (r *refScalar) Update(history, branchAddr uint32, taken bool) {
	i := r.slot(history, branchAddr)
	r.counters[i] = step(r.counters[i], taken)
}

// step moves a wide counter one step toward the outcome, saturating at
// 0 and 3.
func step(c Counter, taken bool) Counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// refShiftPacked is the per-bit GHR.ShiftPacked the one-shift form
// replaced: n calls of Shift, oldest outcome (bit n-1) first.
func refShiftPacked(g *GHR, n int, bits uint32) {
	for i := n - 1; i >= 0; i-- {
		g.Shift(bits>>uint(i)&1 == 1)
	}
}
