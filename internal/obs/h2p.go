package obs

import (
	"sort"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
)

// H2P aggregates the event stream into the hard-to-predict view argued
// for by "Branch Prediction Is Not a Solved Problem": per static block
// address, the penalty cycles and misprediction events charged to it,
// in total and split by Table 3 kind. The total ranking (Top) answers
// "which blocks hurt, period" — the ranking a coverage curve is drawn
// over, and the one a targeted fix (more history, a different family)
// would be judged by. The per-kind ranking (KindTop) answers the §4
// attribution question "which blocks hurt through structure K" — a
// handful of static blocks usually carries most of a kind's penalty.
//
// H2P is not synchronized; give each engine its own and merge with Add.
type H2P struct {
	blocks     uint64 // events observed (one per fetched block)
	total      uint64 // penalty cycles across all sites
	kinds      [metrics.NumKinds]uint64
	kindEvents [metrics.NumKinds]uint64
	sites      map[uint32]*h2pSite
}

type h2pSite struct {
	events     uint64
	cycles     uint64
	byKind     [metrics.NumKinds]uint64 // cycles per kind
	kindEvents [metrics.NumKinds]uint64
}

// H2PSite is one row of a ranked view: a block start address with its
// accumulated penalty events and cycles — over all kinds from Top, for
// one kind from KindTop.
type H2PSite struct {
	Addr   uint32
	Events uint64
	Cycles uint64
	// Kind is the dominant kind by cycles (ties to the lower kind) in
	// Top, the ranked kind in KindTop.
	Kind metrics.Kind
}

// NewH2P returns an empty accumulator.
func NewH2P() *H2P {
	return &H2P{sites: make(map[uint32]*h2pSite)}
}

// Observe implements core.Observer: penalty-carrying events are charged
// to their block start address.
func (h *H2P) Observe(ev core.Event) {
	h.blocks++
	if ev.Penalty <= 0 {
		return
	}
	p := uint64(ev.Penalty)
	h.total += p
	h.kinds[ev.Kind] += p
	h.kindEvents[ev.Kind]++
	s := h.sites[ev.Start]
	if s == nil {
		s = &h2pSite{}
		h.sites[ev.Start] = s
	}
	s.events++
	s.cycles += p
	s.byKind[ev.Kind] += p
	s.kindEvents[ev.Kind]++
}

// Add merges other into h (for combining per-engine accumulators).
func (h *H2P) Add(other *H2P) {
	h.blocks += other.blocks
	h.total += other.total
	for k := range h.kinds {
		h.kinds[k] += other.kinds[k]
		h.kindEvents[k] += other.kindEvents[k]
	}
	for addr, s := range other.sites {
		mine := h.sites[addr]
		if mine == nil {
			mine = &h2pSite{}
			h.sites[addr] = mine
		}
		mine.events += s.events
		mine.cycles += s.cycles
		for k := range mine.byKind {
			mine.byKind[k] += s.byKind[k]
			mine.kindEvents[k] += s.kindEvents[k]
		}
	}
}

// Blocks returns the number of observed events (fetched blocks).
func (h *H2P) Blocks() uint64 { return h.blocks }

// TotalCycles returns the penalty cycles across every site and kind.
func (h *H2P) TotalCycles() uint64 { return h.total }

// KindCycles returns the penalty cycles attributed to kind.
func (h *H2P) KindCycles(k metrics.Kind) uint64 { return h.kinds[k] }

// KindEvents returns the penalty events attributed to kind.
func (h *H2P) KindEvents(k metrics.Kind) uint64 { return h.kindEvents[k] }

// Sites returns the number of distinct penalized block addresses.
func (h *H2P) Sites() int { return len(h.sites) }

// SiteCycles returns the penalty cycles charged to addr (0 if the
// block was never penalized).
func (h *H2P) SiteCycles(addr uint32) uint64 {
	if s := h.sites[addr]; s != nil {
		return s.cycles
	}
	return 0
}

// Top returns the n worst block addresses across all kinds, ordered by
// penalty cycles, then events, then address — a total order, so the
// output is deterministic for a deterministic simulation. n <= 0 means
// all sites.
func (h *H2P) Top(n int) []H2PSite {
	out := make([]H2PSite, 0, len(h.sites))
	for addr, s := range h.sites {
		site := H2PSite{Addr: addr, Events: s.events, Cycles: s.cycles}
		for k := range s.byKind {
			if s.byKind[k] > s.byKind[site.Kind] {
				site.Kind = metrics.Kind(k)
			}
		}
		out = append(out, site)
	}
	return rank(out, n)
}

// KindTop returns the n worst block addresses for kind, with the events
// and cycles charged to them through that kind, in Top's order. n <= 0
// means every site the kind charged.
func (h *H2P) KindTop(k metrics.Kind, n int) []H2PSite {
	var out []H2PSite
	for addr, s := range h.sites {
		if s.kindEvents[k] > 0 {
			out = append(out, H2PSite{Addr: addr, Events: s.kindEvents[k], Cycles: s.byKind[k], Kind: k})
		}
	}
	return rank(out, n)
}

// rank sorts sites by penalty cycles, then events, then address, and
// keeps the first n (n <= 0 keeps all).
func rank(out []H2PSite, n int) []H2PSite {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Addr < out[j].Addr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// H2PRanked is one ranked site with its share of all penalty cycles
// and the cumulative coverage through its rank.
type H2PRanked struct {
	H2PSite
	Share, Cum float64
}

// Ranked returns Top(n) with each site's penalty share and cumulative
// coverage — the one computation behind Coverage and every ranked H2P
// report. Both fractions are 0 when there is no penalty at all.
func (h *H2P) Ranked(n int) []H2PRanked {
	var out []H2PRanked
	var cum uint64
	for _, s := range h.Top(n) {
		cum += s.Cycles
		r := H2PRanked{H2PSite: s}
		if h.total > 0 {
			r.Share, r.Cum = float64(s.Cycles)/float64(h.total), float64(cum)/float64(h.total)
		}
		out = append(out, r)
	}
	return out
}

// Coverage returns the cumulative-coverage curve over the ranked sites:
// element i is the fraction of all penalty cycles explained by the top
// i+1 blocks. The curve is truncated to n points (n <= 0 means all
// sites); with no penalty at all the curve is empty.
func (h *H2P) Coverage(n int) []float64 {
	if h.total == 0 {
		return nil
	}
	var out []float64 // a penalty means at least one site, so never nil here
	for _, r := range h.Ranked(n) {
		out = append(out, r.Cum)
	}
	return out
}
