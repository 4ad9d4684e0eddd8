package obs

import (
	"math"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
)

func h2pEv(addr uint32, penalty int, kind metrics.Kind) core.Event {
	return core.Event{Start: addr, Penalty: penalty, Kind: kind}
}

func TestH2PObserve(t *testing.T) {
	h := NewH2P()
	h.Observe(h2pEv(100, 0, metrics.CondMispredict)) // no penalty: counted as a block only
	h.Observe(h2pEv(100, 5, metrics.CondMispredict))
	h.Observe(h2pEv(100, 3, metrics.ReturnMispredict))
	h.Observe(h2pEv(200, 6, metrics.ReturnMispredict))
	h.Observe(h2pEv(300, 2, metrics.Misselect))

	if h.Blocks() != 5 {
		t.Errorf("blocks = %d, want 5", h.Blocks())
	}
	if h.TotalCycles() != 16 {
		t.Errorf("total = %d, want 16", h.TotalCycles())
	}
	if h.Sites() != 3 {
		t.Errorf("sites = %d, want 3", h.Sites())
	}
	if got := h.KindCycles(metrics.ReturnMispredict); got != 9 {
		t.Errorf("return cycles = %d, want 9", got)
	}
	if got := h.SiteCycles(100); got != 8 {
		t.Errorf("site 100 = %d, want 8", got)
	}
	if got := h.SiteCycles(999); got != 0 {
		t.Errorf("absent site = %d, want 0", got)
	}

	top := h.Top(0)
	if len(top) != 3 || top[0].Addr != 100 || top[1].Addr != 200 || top[2].Addr != 300 {
		t.Fatalf("top order = %+v", top)
	}
	// Block 100 carries 5 mispredict + 3 return cycles: mispredict wins.
	if top[0].Kind != metrics.CondMispredict || top[0].Events != 2 || top[0].Cycles != 8 {
		t.Errorf("top site = %+v", top[0])
	}
	if got := h.Top(1); len(got) != 1 || got[0].Addr != 100 {
		t.Errorf("top(1) = %+v", got)
	}

	cov := h.Coverage(0)
	want := []float64{8.0 / 16, 14.0 / 16, 1}
	if len(cov) != len(want) {
		t.Fatalf("coverage = %v", cov)
	}
	for i := range cov {
		if math.Abs(cov[i]-want[i]) > 1e-12 {
			t.Errorf("coverage[%d] = %v, want %v", i, cov[i], want[i])
		}
	}
	if got := h.Coverage(2); len(got) != 2 {
		t.Errorf("coverage(2) has %d points", len(got))
	}
	// Ranked carries the same ranking, each site's share, and the curve.
	shares := []float64{8.0 / 16, 6.0 / 16, 2.0 / 16}
	for i, r := range h.Ranked(0) {
		if r.H2PSite != top[i] || math.Abs(r.Share-shares[i]) > 1e-12 || r.Cum != cov[i] {
			t.Errorf("ranked[%d] = %+v, want site %+v, share %v, cum %v", i, r, top[i], shares[i], cov[i])
		}
	}
}

// TestH2PTieBreaks pins the total order: cycles desc, then events desc,
// then address asc — and the dominant-kind tie going to the lower kind.
func TestH2PTieBreaks(t *testing.T) {
	h := NewH2P()
	h.Observe(h2pEv(20, 4, metrics.CondMispredict))
	h.Observe(h2pEv(10, 2, metrics.Misselect)) // same cycles as 20, more events
	h.Observe(h2pEv(10, 2, metrics.Misselect))
	h.Observe(h2pEv(30, 2, metrics.BITMispredict)) // equal-cycle kind tie at site 30
	h.Observe(h2pEv(30, 2, metrics.GHRMispredict))

	// All three sites carry 4 cycles; 10 and 30 have two events each
	// (address breaks their tie), 20 has one.
	top := h.Top(0)
	if top[0].Addr != 10 || top[1].Addr != 30 || top[2].Addr != 20 {
		t.Fatalf("tie order = %+v", top)
	}
	if top[1].Kind != metrics.GHRMispredict {
		t.Errorf("kind tie went to %v, want the lower kind %v", top[1].Kind, metrics.GHRMispredict)
	}

	// The per-kind view ranks the same way: cycles, events, address.
	h.Observe(h2pEv(40, 1, metrics.Misselect))
	h.Observe(h2pEv(40, 1, metrics.Misselect))
	h.Observe(h2pEv(5, 4, metrics.Misselect))
	kt := h.KindTop(metrics.Misselect, 0)
	want := []H2PSite{
		{Addr: 10, Events: 2, Cycles: 4, Kind: metrics.Misselect},
		{Addr: 5, Events: 1, Cycles: 4, Kind: metrics.Misselect},
		{Addr: 40, Events: 2, Cycles: 2, Kind: metrics.Misselect},
	}
	if len(kt) != len(want) {
		t.Fatalf("kind top = %+v, want %+v", kt, want)
	}
	for i := range want {
		if kt[i] != want[i] {
			t.Errorf("kind top[%d] = %+v, want %+v", i, kt[i], want[i])
		}
	}
}

func TestH2PAdd(t *testing.T) {
	a, b := NewH2P(), NewH2P()
	a.Observe(h2pEv(1, 3, metrics.CondMispredict))
	b.Observe(h2pEv(1, 4, metrics.ReturnMispredict))
	b.Observe(h2pEv(2, 7, metrics.Misselect))
	a.Add(b)

	if a.Blocks() != 3 || a.TotalCycles() != 14 || a.Sites() != 2 {
		t.Errorf("merged: blocks=%d total=%d sites=%d", a.Blocks(), a.TotalCycles(), a.Sites())
	}
	if a.SiteCycles(1) != 7 {
		t.Errorf("site 1 = %d, want 7", a.SiteCycles(1))
	}
	top := a.Top(0)
	if top[0].Addr != 1 || top[0].Kind != metrics.ReturnMispredict {
		t.Errorf("merged dominant kind = %+v", top[0])
	}
}

func TestH2PEmpty(t *testing.T) {
	h := NewH2P()
	if h.Coverage(0) != nil || len(h.Top(0)) != 0 || h.TotalCycles() != 0 {
		t.Error("empty accumulator not empty")
	}
}
