package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// laneConfigs derives a set of 1-4 configurations sharing one geometry
// from fuzz bytes: the geometry comes from (a, b) and each lane's
// remaining knobs from its own byte triple, so lanes differ in history
// depth, selection, target array, BIT size and near-block encoding but
// never in block formation.
func laneConfigs(a, b uint8, knobs []uint8) []Config {
	n := len(knobs) / 3
	if n == 0 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		var c, d, e uint8 = 1, 2, 3
		if len(knobs) >= 3*(i+1) {
			c, d, e = knobs[3*i], knobs[3*i+1], knobs[3*i+2]
		}
		cfgs[i] = randomConfig(a, b, c, d, e, uint8(i)*37+e)
		// randomConfig derives geometry from its first two bytes, so
		// every lane shares it by construction.
	}
	return cfgs
}

// runIndependent runs one fresh engine per configuration over the trace
// and returns the results and the paired Stats snapshots.
func runIndependent(t *testing.T, cfgs []Config, tr *trace.Buffer) ([]metrics.Result, []StructStats) {
	t.Helper()
	results := make([]metrics.Result, len(cfgs))
	stats := make([]StructStats, len(cfgs))
	for i, cfg := range cfgs {
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		results[i] = e.Run(tr)
		stats[i] = e.Stats()
	}
	return results, stats
}

// TestLaneEquivalence pins the core guarantee: a LaneSet run over a
// random trace produces, for every lane, the identical Result and the
// identical structure Stats snapshot as an independent engine run.
func TestLaneEquivalence(t *testing.T) {
	f := func(seed int64, a, b uint8, knobs []uint8) bool {
		tr := randomTrace(seed%1000, 2500)
		cfgs := laneConfigs(a, b, knobs)
		wantRes, wantStats := runIndependent(t, cfgs, tr)

		ls, err := NewLanes(cfgs)
		if err != nil {
			t.Fatalf("NewLanes: %v", err)
		}
		got := ls.Run(tr)
		for i := range cfgs {
			if got[i] != wantRes[i] {
				t.Logf("lane %d result:\n lane %+v\n solo %+v", i, got[i], wantRes[i])
				return false
			}
			if ls.Lanes()[i].Stats() != wantStats[i] {
				t.Logf("lane %d stats diverge", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLanePartitionInvariance: running {A,B,C} as one lane set, as
// {A} + {B,C}, or as three singleton sets yields identical per-config
// results — lane membership is unobservable.
func TestLanePartitionInvariance(t *testing.T) {
	f := func(seed int64, a, b uint8, knobs []uint8) bool {
		cfgs := laneConfigs(a, b, knobs)
		if len(cfgs) < 2 {
			return true
		}
		tr := randomTrace(seed%1000, 2000)

		run := func(parts [][]Config) []metrics.Result {
			var out []metrics.Result
			for _, part := range parts {
				ls, err := NewLanes(part)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ls.Run(tr)...)
			}
			return out
		}

		whole := run([][]Config{cfgs})
		split := run([][]Config{cfgs[:1], cfgs[1:]})
		var singles [][]Config
		for i := range cfgs {
			singles = append(singles, cfgs[i:i+1])
		}
		alone := run(singles)

		for i := range whole {
			if whole[i] != split[i] || whole[i] != alone[i] {
				t.Logf("partition divergence at lane %d:\n whole %+v\n split %+v\n alone %+v",
					i, whole[i], split[i], alone[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLaneSingletonMatchesEngineRun: a one-lane set is exactly
// Engine.Run, including the Program name picked up from a named source.
func TestLaneSingletonMatchesEngineRun(t *testing.T) {
	tr := randomTrace(11, 3000)
	cfg := DefaultConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Run(tr)

	ls, err := NewLanes([]Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	got := ls.Run(tr)
	if len(got) != 1 || got[0] != want {
		t.Errorf("singleton lane diverges:\n lane %+v\n solo %+v", got, want)
	}
	if got[0].Program != "random" {
		t.Errorf("lane Program = %q, want %q", got[0].Program, "random")
	}
}

// TestNewLanesErrors: empty sets, invalid lane configurations, and
// mixed geometries are all rejected with descriptive errors.
func TestNewLanesErrors(t *testing.T) {
	if _, err := NewLanes(nil); err == nil {
		t.Error("NewLanes(nil) succeeded")
	}

	bad := DefaultConfig()
	bad.HistoryBits = -1
	if _, err := NewLanes([]Config{DefaultConfig(), bad}); err == nil {
		t.Error("invalid lane config accepted")
	} else {
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("lane config error does not wrap ErrInvalidConfig: %v", err)
		}
		if !strings.Contains(err.Error(), "lane 1") {
			t.Errorf("error does not name the offending lane: %v", err)
		}
	}

	other := DefaultConfig()
	other.Geometry = icache.ForKind(icache.SelfAligned, 8)
	if _, err := NewLanes([]Config{DefaultConfig(), other}); err == nil {
		t.Error("mixed-geometry lane set accepted")
	} else if !strings.Contains(err.Error(), "geometry") {
		t.Errorf("mixed-geometry error unclear: %v", err)
	}
}

// TestGroupLanes pins the lane planner: one set per geometry in
// first-appearance order, lanes in first-appearance order within a set,
// equal configurations collapsed onto one lane, and each slot naming
// the lane that carries its configuration. Two configurations share a
// slot exactly when their canonical hashes agree.
func TestGroupLanes(t *testing.T) {
	d := DefaultConfig()
	h12 := d
	h12.HistoryBits = 12
	sa := d
	sa.Geometry = icache.ForKind(icache.SelfAligned, 8)
	saNear := sa
	saNear.NearBlock = true
	ext := d
	ext.Geometry = icache.ForKind(icache.Extended, 8)
	tage := d
	tage.Predictor, tage.NumPHTs = PredictorTAGE, 1
	tageSpelled := tage // the same predictor, its defaults written out
	tageSpelled.TAGE = DefaultTAGEParams()

	cases := []struct {
		name string
		cfgs []Config
		sets [][]Config
		slot []LaneSlot
	}{
		{"empty", nil, nil, []LaneSlot{}},
		{"one", []Config{d}, [][]Config{{d}}, []LaneSlot{{0, 0}}},
		{"all equal", []Config{d, DefaultConfig(), d}, [][]Config{{d}},
			[]LaneSlot{{0, 0}, {0, 0}, {0, 0}}},
		{"one geometry", []Config{h12, d, tage}, [][]Config{{h12, d, tage}},
			[]LaneSlot{{0, 0}, {0, 1}, {0, 2}}},
		{"mixed with duplicates",
			[]Config{d, sa, h12, d, saNear, sa, ext, h12},
			[][]Config{{d, h12}, {sa, saNear}, {ext}},
			[]LaneSlot{{0, 0}, {1, 0}, {0, 1}, {0, 0}, {1, 1}, {1, 0}, {2, 0}, {0, 1}}},
		{"distinct structs stay apart", []Config{tage, tageSpelled, tage},
			[][]Config{{tage, tageSpelled}}, []LaneSlot{{0, 0}, {0, 1}, {0, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sets, slot := GroupLanes(c.cfgs)
			if !reflect.DeepEqual(sets, c.sets) {
				t.Errorf("sets = %v, want %v", sets, c.sets)
			}
			if !reflect.DeepEqual(slot, c.slot) {
				t.Errorf("slot = %v, want %v", slot, c.slot)
			}
			for i, cfg := range c.cfgs {
				s := slot[i]
				if sets[s.Set][s.Lane] != cfg {
					t.Errorf("config %d: slot %+v holds a different config", i, s)
				}
				hi, err := cfg.CanonicalHash()
				if err != nil {
					t.Fatal(err)
				}
				for j := range i {
					hj, _ := c.cfgs[j].CanonicalHash()
					if (hi == hj) != (slot[j] == s) {
						t.Errorf("configs %d and %d: hashes equal %v, slots equal %v",
							j, i, hi == hj, slot[j] == s)
					}
				}
			}
			for si, set := range sets {
				if _, err := NewLanes(set); err != nil {
					t.Errorf("set %d: %v", si, err)
				}
			}
		})
	}
}

// countObserver counts events and remembers the last one.
type countObserver struct {
	n    int
	last Event
}

func (c *countObserver) Observe(ev Event) { c.n++; c.last = ev }

// gatedObserver is a countObserver that reports itself disabled.
type gatedObserver struct {
	countObserver
	enabled bool
}

func (g *gatedObserver) ObserverEnabled() bool { return g.enabled }

// TestLaneObservers: observers attach per lane, see exactly the events
// an independent run would emit, and the ObserverGate contract holds
// lane by lane.
func TestLaneObservers(t *testing.T) {
	tr := randomTrace(5, 2000)
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.HistoryBits = 6

	// Reference: independent run of cfgB with an observer.
	ref, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	refObs := &countObserver{}
	ref.SetObserver(refObs)
	refRes := ref.Run(tr)

	ls, err := NewLanes([]Config{cfgA, cfgB})
	if err != nil {
		t.Fatal(err)
	}
	laneObs := &countObserver{}
	off := &gatedObserver{enabled: false}
	ls.Lanes()[0].SetObserver(off)
	ls.Lanes()[1].SetObserver(laneObs)
	got := ls.Run(tr)

	if got[1] != refRes {
		t.Errorf("observed lane result diverges:\n lane %+v\n solo %+v", got[1], refRes)
	}
	if laneObs.n == 0 || laneObs.n != refObs.n {
		t.Errorf("lane observer saw %d events, independent run %d", laneObs.n, refObs.n)
	}
	if laneObs.last != refObs.last {
		t.Errorf("last event diverges:\n lane %+v\n solo %+v", laneObs.last, refObs.last)
	}
	if off.n != 0 {
		t.Errorf("disabled gated observer received %d events", off.n)
	}

	// Re-enable the gate: the next Run must deliver events.
	off.enabled = true
	ls.Run(tr)
	if off.n == 0 {
		t.Error("enabled gated observer received no events")
	}
}

// TestLaneRunsAreRestartable: consecutive Run calls on a LaneSet warm
// the lanes exactly like consecutive Engine.Run calls.
func TestLaneRunsAreRestartable(t *testing.T) {
	tr := randomTrace(9, 2500)
	cfgs := []Config{DefaultConfig(), DefaultConfig()}
	cfgs[1].HistoryBits = 7

	solo := make([]metrics.Result, len(cfgs))
	for i, cfg := range cfgs {
		e, _ := New(cfg)
		e.Run(tr)
		solo[i] = e.Run(tr) // warm second pass
	}

	ls, err := NewLanes(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ls.Run(tr)
	warm := ls.Run(tr)
	for i := range cfgs {
		if warm[i] != solo[i] {
			t.Errorf("warm lane %d diverges:\n lane %+v\n solo %+v", i, warm[i], solo[i])
		}
	}
}
