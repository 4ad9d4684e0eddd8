package obs

import (
	"sync/atomic"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
)

// Counters is a concurrency-safe aggregate sink: every field is an
// atomic, so one Counters can be shared by all the engines of a
// simulation service and scraped while they run. It trades the
// per-site detail of H2P for lock-free accumulation.
type Counters struct {
	blocks    atomic.Uint64
	redirects atomic.Uint64
	cycles    [metrics.NumKinds]atomic.Uint64
	events    [metrics.NumKinds]atomic.Uint64
}

// NewCounters returns a zeroed aggregate sink.
func NewCounters() *Counters { return &Counters{} }

// Observe implements core.Observer.
func (c *Counters) Observe(ev core.Event) {
	c.blocks.Add(1)
	if ev.Redirect {
		c.redirects.Add(1)
	}
	if ev.Penalty > 0 {
		c.cycles[ev.Kind].Add(uint64(ev.Penalty))
		c.events[ev.Kind].Add(1)
	}
}

// CountersSnapshot is one consistent-enough read of the counters: each
// field is read atomically; fields observed mid-run may differ by the
// events that landed between loads, which is fine for monitoring.
type CountersSnapshot struct {
	Blocks        uint64
	Redirects     uint64
	PenaltyCycles [metrics.NumKinds]uint64
	PenaltyEvents [metrics.NumKinds]uint64
}

// Snapshot reads the current totals.
func (c *Counters) Snapshot() CountersSnapshot {
	var s CountersSnapshot
	s.Blocks = c.blocks.Load()
	s.Redirects = c.redirects.Load()
	for k := range s.PenaltyCycles {
		s.PenaltyCycles[k] = c.cycles[k].Load()
		s.PenaltyEvents[k] = c.events[k].Load()
	}
	return s
}
