package icache

import "fmt"

// Model is an optional instruction-cache *content* model. The paper
// assumes a perfect instruction cache ("instruction cache misses were
// not simulated"), and the fetch engine defaults to the same; this
// set-associative tag array with LRU replacement is provided as an
// extension so the fetch mechanisms can be studied with a finite cache.
// Only hits and misses are modeled — data comes from the trace either
// way.
type Model struct {
	sets  int
	assoc int
	tags  []uint32 // sets*assoc; tagInvalid = empty
	used  []uint64
	clock uint64
}

const tagInvalid = ^uint32(0)

// NewModel builds a cache of totalLines line frames with the given
// associativity. totalLines must be a positive multiple of assoc and a
// power of two.
func NewModel(totalLines, assoc int) (*Model, error) {
	if totalLines < 1 || totalLines&(totalLines-1) != 0 {
		return nil, fmt.Errorf("icache: lines %d must be a power of two", totalLines)
	}
	if assoc < 1 || totalLines%assoc != 0 {
		return nil, fmt.Errorf("icache: associativity %d must divide lines %d", assoc, totalLines)
	}
	m := &Model{sets: totalLines / assoc, assoc: assoc}
	m.tags = make([]uint32, totalLines)
	m.used = make([]uint64, totalLines)
	m.Reset()
	return m, nil
}

// Reset empties every frame and zeroes the LRU clock in place, as if
// freshly built. It allocates nothing.
func (m *Model) Reset() {
	for i := range m.tags {
		m.tags[i] = tagInvalid
	}
	clear(m.used)
	m.clock = 0
}

// Access probes the cache for a line index, filling on miss (LRU
// victim), and reports whether it hit.
func (m *Model) Access(line uint32) bool {
	set := int(line) % m.sets
	base := set * m.assoc
	m.clock++
	for i := 0; i < m.assoc; i++ {
		if m.tags[base+i] == line {
			m.used[base+i] = m.clock
			return true
		}
	}
	victim := base
	for i := 1; i < m.assoc; i++ {
		if m.tags[base+i] == tagInvalid {
			victim = base + i
			break
		}
		if m.tags[victim] != tagInvalid && m.used[base+i] < m.used[victim] {
			victim = base + i
		}
	}
	m.tags[victim] = line
	m.used[victim] = m.clock
	return false
}
