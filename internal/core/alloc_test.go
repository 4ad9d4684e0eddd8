package core

import (
	"testing"

	"mbbp/internal/trace"
)

// TestRunAllocsIndependentOfTraceLength pins the block loop's
// allocation-free steady state: one Engine.Run and one LaneSet.Run
// allocate a fixed set of per-run buffers, never anything per block, so
// their allocation counts must not grow with the trace length.
func TestRunAllocsIndependentOfTraceLength(t *testing.T) {
	short := benchTrace(t, "gcc", 5_000)
	long := benchTrace(t, "gcc", 40_000)

	single := DefaultConfig()
	single.Mode = SingleBlock
	single.BITEntries = 256
	btb := DefaultConfig()
	btb.TargetArray = BTB
	btb.NearBlock = true
	cfgs := []Config{DefaultConfig(), single, btb}

	engineAllocs := func(tr *trace.Buffer) float64 {
		e, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { e.Run(tr) })
	}
	lanesAllocs := func(tr *trace.Buffer) float64 {
		ls, err := NewLanes(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { ls.Run(tr) })
	}
	for _, c := range []struct {
		name string
		run  func(*trace.Buffer) float64
	}{{"Engine.Run", engineAllocs}, {"LaneSet.Run", lanesAllocs}} {
		s, l := c.run(short), c.run(long)
		if l > s {
			t.Errorf("%s: %.0f allocs over %d instructions, %.0f over %d — allocations grow with the trace",
				c.name, s, short.Len(), l, long.Len())
		}
	}
}
