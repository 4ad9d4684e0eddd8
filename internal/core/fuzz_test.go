package core

import (
	"bytes"
	"reflect"
	"testing"

	"mbbp/internal/metrics"
)

// FuzzLaneEquivalence fuzzes (config set × trace) pairs and requires a
// LaneSet run to be indistinguishable — full Result and full Stats()
// snapshot — from one independent engine run per configuration. This
// is the engine-level analogue of the packed-array fuzz oracles: the
// per-config path is the model, the lane path is the implementation
// under test. The trace is 1500 instructions plus 128 per unit of the
// seed's top byte, up to about 34k, so fuzzed traces span from under
// two tiles of blocks to dozens; a seed below 2^56, as every committed
// one is, keeps 1500. Seed inputs live under
// testdata/fuzz/FuzzLaneEquivalence.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), []byte{1, 2, 3})
	f.Add(int64(7), uint8(1), uint8(0), []byte{9, 4, 1, 0, 0, 0})
	f.Add(int64(42), uint8(2), uint8(2), []byte{5, 5, 5, 1, 2, 3, 200, 100, 50})
	f.Add(int64(99), uint8(0), uint8(0), []byte{0xff, 0xfe, 0xfd, 0x01, 0x02, 0x03, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	f.Add(int64(40)<<56|5, uint8(1), uint8(1), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5})
	f.Fuzz(func(t *testing.T, seed int64, a, b uint8, knobs []byte) {
		tr := randomTrace(seed%4096, 1500+128*int(uint64(seed)>>56))
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

// FuzzResetEqualsNew fuzzes (configuration, trace) pairs: an engine
// dirtied by the trace and then Reset must run it again exactly as a
// brand-new engine does — full Result and Stats, over two passes so
// state the first pass leaves behind is compared too — Reset must
// allocate nothing, and the reset engine must equal a never-run one
// field for field. The configuration decodes as in FuzzConfigJSON
// (rejected documents are skipped), the trace as in
// FuzzBlockFormation. Seed inputs, one per structure family, live
// under testdata/fuzz/FuzzResetEqualsNew.
func FuzzResetEqualsNew(f *testing.F) {
	f.Add([]byte(`{}`), []byte{1, 60, 9, 90, 0x30, 5, 0, 0, 4, 100, 2, 200, 0})
	f.Fuzz(func(t *testing.T, doc, data []byte) {
		cfg, err := LoadConfigJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		src := fuzzRecords(data)
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a validated config: %v", err)
		}
		fresh, _ := New(cfg)
		e.Run(src)
		if allocs := testing.AllocsPerRun(1, e.Reset); allocs != 0 {
			t.Errorf("Reset allocates %v times", allocs)
		}
		if !reflect.DeepEqual(e, fresh) {
			t.Fatalf("reset engine differs from a never-run one")
		}
		for pass := 0; pass < 2; pass++ {
			if got, want := e.Run(src), fresh.Run(src); got != want {
				t.Fatalf("pass %d after Reset:\n got %+v\nwant %+v", pass, got, want)
			}
			if got, want := e.Stats(), fresh.Stats(); got != want {
				t.Fatalf("pass %d stats after Reset %+v, fresh %+v", pass, got, want)
			}
		}
	})
}
