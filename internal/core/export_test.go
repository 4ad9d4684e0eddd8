package core

import (
	"fmt"

	"mbbp/internal/metrics"
)

// RandomTrace exposes the random control-flow trace generator to the
// external test package.
var RandomTrace = randomTrace

// ChargeOracle is an Observer that recomputes every block's Event
// Penalty and Kind from the engine's running PenaltyCycles: the largest
// per-kind increase over the block, ties to the lower kind. It records
// the first block whose Event disagrees.
type ChargeOracle struct {
	E *Engine
	// Blocks and Charged count the observed blocks and those carrying
	// a penalty.
	Blocks, Charged uint64
	Err             error

	before [metrics.NumKinds]uint64
}

// Observe implements Observer.
func (o *ChargeOracle) Observe(ev Event) {
	if ev.Block == 1 {
		o.before = [metrics.NumKinds]uint64{} // Run starts from a zero result
	}
	var penalty int
	var kind metrics.Kind
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		if d := int(o.E.res.PenaltyCycles[k] - o.before[k]); d > penalty {
			penalty, kind = d, k
		}
	}
	o.before = o.E.res.PenaltyCycles
	o.Blocks++
	if penalty > 0 {
		o.Charged++
	}
	if o.Err == nil && (ev.Penalty != penalty || ev.Kind != kind) {
		o.Err = fmt.Errorf("block %d at %d: event charges %d (%v), PenaltyCycles deltas give %d (%v)",
			ev.Block, ev.Start, ev.Penalty, ev.Kind, penalty, kind)
	}
}
