package harness

import (
	"reflect"
	"testing"

	"mbbp/internal/core"
)

// TestH2PShape checks the report's internal consistency on the pinned
// test traces: the history grid, the coverage curve's monotonicity, and
// the sensitivity sweep's best-h contract (best never worse than base,
// delta is exactly the claimed saving).
func TestH2PShape(t *testing.T) {
	rows := cachedH2P(t).Rows
	if len(rows) != len(testTraces.Programs()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(testTraces.Programs()))
	}
	wantHist := normalizeHistories(DefaultH2PHistories, core.DefaultConfig().HistoryBits)
	for _, r := range rows {
		if r.BaseH != core.DefaultConfig().HistoryBits {
			t.Errorf("%s: BaseH = %d", r.Program, r.BaseH)
		}
		if !reflect.DeepEqual(r.Histories, wantHist) {
			t.Errorf("%s: histories = %v, want %v", r.Program, r.Histories, wantHist)
		}
		base := r.Att[r.BaseH]
		if base == nil {
			t.Fatalf("%s: no base accumulator", r.Program)
		}
		if base.TotalCycles() == 0 || base.Sites() == 0 {
			t.Errorf("%s: empty base attribution", r.Program)
		}
		if base.TotalCycles() > r.Res.TotalPenaltyCycles() {
			t.Errorf("%s: attributed %d cycles, result charges only %d",
				r.Program, base.TotalCycles(), r.Res.TotalPenaltyCycles())
		}
		blocks := r.TopBlocks(DefaultH2PTopN)
		if len(blocks) == 0 || len(blocks) > DefaultH2PTopN {
			t.Fatalf("%s: %d top blocks", r.Program, len(blocks))
		}
		prevCum := 0.0
		for i, b := range blocks {
			if i > 0 && b.Cycles > blocks[i-1].Cycles {
				t.Errorf("%s: rank %d out of order", r.Program, i+1)
			}
			if b.Cum < prevCum || b.Cum > 1+1e-12 {
				t.Errorf("%s: coverage curve not monotone in [0,1]: %v", r.Program, b.Cum)
			}
			prevCum = b.Cum
			if b.BestCycles > b.Cycles {
				t.Errorf("%s @%d: best-h %d costs %d > base %d",
					r.Program, b.Addr, b.BestH, b.BestCycles, b.Cycles)
			}
			if b.Delta != b.Cycles-b.BestCycles {
				t.Errorf("%s @%d: delta %d != %d-%d", r.Program, b.Addr, b.Delta, b.Cycles, b.BestCycles)
			}
			found := false
			for _, h := range r.Histories {
				found = found || h == b.BestH
			}
			if !found {
				t.Errorf("%s @%d: best-h %d outside the grid %v", r.Program, b.Addr, b.BestH, r.Histories)
			}
			if b.BestCycles != r.Att[b.BestH].SiteCycles(b.Addr) {
				t.Errorf("%s @%d: best cycles %d disagree with the %d-bit accumulator",
					r.Program, b.Addr, b.BestCycles, b.BestH)
			}
		}
	}
}

// TestParseHistories pins the flag grammar and normalization.
func TestParseHistories(t *testing.T) {
	if hs, err := ParseHistories(""); err != nil || !reflect.DeepEqual(hs, DefaultH2PHistories) {
		t.Errorf("empty = %v, %v; want default grid", hs, err)
	}
	if hs, err := ParseHistories(" 12, 6,6, 8 "); err != nil || !reflect.DeepEqual(hs, []int{6, 8, 12}) {
		t.Errorf("parse = %v, %v; want [6 8 12]", hs, err)
	}
	for _, bad := range []string{"6,,8", "x", "0", "-3", "6;8"} {
		if _, err := ParseHistories(bad); err == nil {
			t.Errorf("ParseHistories(%q) accepted", bad)
		}
	}
}

// TestH2PInvalidConfig: a config that cannot validate surfaces its
// error through the wait function instead of panicking at submission.
func TestH2PInvalidConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistoryBits = -1
	if _, err := h2pAsync(Serial(), testTraces, cfg, Params{})(); err == nil {
		t.Fatal("invalid base config produced no error")
	}
}
