// Package obs is the unified observability layer: switchable engine
// event taps, misprediction attribution in the paper's Table 3
// taxonomy (H2P), concurrency-safe aggregate counters for the
// simulation service, and per-request stage spans.
//
// The layer is zero-overhead when disabled. An engine with no observer
// pays one nil-check per block; an engine with a Tap installed but
// disabled pays exactly the same, because core.Engine.Run consults the
// tap's gate once per run and drops to the nil path (the obs-overhead
// benchmark and CI gate pin this).
package obs

import (
	"sync/atomic"

	"mbbp/internal/core"
)

// Tap is the switchable engine event tap: it forwards every event to
// its sink while enabled, and reports its state to the engine's
// ObserverGate check so a disabled tap costs nothing per block. The
// enabled flag is atomic — a tap can be shared by concurrent engines
// and toggled from another goroutine (the toggle takes effect at each
// engine's next Run).
type Tap struct {
	sink core.Observer
	on   atomic.Bool
}

// NewTap returns an enabled tap forwarding to sink.
func NewTap(sink core.Observer) *Tap {
	t := &Tap{sink: sink}
	t.on.Store(true)
	return t
}

// Enable turns the tap on.
func (t *Tap) Enable() { t.on.Store(true) }

// Disable turns the tap off; the engine treats it as absent from its
// next Run on.
func (t *Tap) Disable() { t.on.Store(false) }

// ObserverEnabled implements core.ObserverGate.
func (t *Tap) ObserverEnabled() bool { return t.on.Load() }

// Observe implements core.Observer. The enabled check here covers
// observers driven directly (outside an engine Run, or mid-run after a
// concurrent Disable — the engine only re-checks the gate per Run).
func (t *Tap) Observe(ev core.Event) {
	if t.on.Load() {
		t.sink.Observe(ev)
	}
}
