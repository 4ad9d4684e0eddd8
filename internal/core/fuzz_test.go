package core

import (
	"testing"

	"mbbp/internal/metrics"
)

// FuzzLaneEquivalence fuzzes (config set × trace) pairs and requires a
// LaneSet run to be indistinguishable — full Result and full Stats()
// snapshot — from one independent engine run per configuration. This
// is the engine-level analogue of the packed-array fuzz oracles: the
// per-config path is the model, the lane path is the implementation
// under test. Seed inputs live under
// testdata/fuzz/FuzzLaneEquivalence.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), []byte{1, 2, 3})
	f.Add(int64(7), uint8(1), uint8(0), []byte{9, 4, 1, 0, 0, 0})
	f.Add(int64(42), uint8(2), uint8(2), []byte{5, 5, 5, 1, 2, 3, 200, 100, 50})
	f.Add(int64(99), uint8(0), uint8(0), []byte{0xff, 0xfe, 0xfd, 0x01, 0x02, 0x03, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	f.Fuzz(func(t *testing.T, seed int64, a, b uint8, knobs []byte) {
		tr := randomTrace(seed%4096, 1500)
		cfgs := laneConfigs(a, b, knobs)

		want := make([]metrics.Result, len(cfgs))
		wantStats := make([]StructStats, len(cfgs))
		for i, cfg := range cfgs {
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("config %d invalid: %v", i, err)
			}
			want[i] = e.Run(tr)
			wantStats[i] = e.Stats()
		}

		ls, err := NewLanes(cfgs)
		if err != nil {
			t.Fatalf("NewLanes: %v", err)
		}
		got := ls.Run(tr)
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("lane %d result diverges:\n lane %+v\n solo %+v", i, got[i], want[i])
			}
			if st := ls.Lanes()[i].Stats(); st != wantStats[i] {
				t.Errorf("lane %d stats diverge:\n lane %+v\n solo %+v", i, st, wantStats[i])
			}
		}
	})
}
