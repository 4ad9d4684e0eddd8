package obs

import (
	"os"
	"strconv"
	"testing"
	"time"

	"mbbp/internal/core"
)

// TestTapDisabledOverhead is the obs-overhead gate: an engine with a
// tap installed but disabled must run within OBS_OVERHEAD_MAX_PCT
// (default 2) percent of the ns/instruction of an engine with no
// observer at all. It is a timing test, so it only runs when
// OBS_OVERHEAD=1 is set (the CI bench-smoke job sets it); the default
// `go test ./...` stays deterministic.
//
// Methodology: the two variants run interleaved for several rounds on
// the same captured trace and the best round of each is compared —
// min-of-N on one process is robust against scheduler noise, and
// interleaving cancels thermal/frequency drift between variants.
func TestTapDisabledOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD") == "" {
		t.Skip("timing gate; set OBS_OVERHEAD=1 to run")
	}
	maxPct := 2.0
	if s := os.Getenv("OBS_OVERHEAD_MAX_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad OBS_OVERHEAD_MAX_PCT %q: %v", s, err)
		}
		maxPct = v
	}

	tr := benchTrace(t)
	newEngineWith := func(o core.Observer) *core.Engine {
		e, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.SetObserver(o)
		return e
	}
	// The sink behind the disabled tap is the H2P aggregator — the
	// heaviest sink the service installs (per-site map updates) — so the
	// gate pins the cost of having attribution *registered* at zero.
	disabledTap := func() core.Observer {
		tap := NewTap(NewH2P())
		tap.Disable()
		return tap
	}

	measure := func(e *core.Engine) float64 {
		start := time.Now()
		res := e.Run(tr)
		return float64(time.Since(start).Nanoseconds()) / float64(res.Instructions)
	}

	const rounds = 10
	noTap, disabled := newEngineWith(nil), newEngineWith(disabledTap())
	measure(noTap) // warm both engines' tables and the trace pages
	measure(disabled)
	best := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	var bestNo, bestDis float64
	for i := 0; i < rounds; i++ {
		bestNo = best(bestNo, measure(noTap))
		bestDis = best(bestDis, measure(disabled))
	}

	overhead := 100 * (bestDis - bestNo) / bestNo
	t.Logf("no-tap %.3f ns/instr, tap-disabled %.3f ns/instr, overhead %.2f%% (gate %.1f%%)",
		bestNo, bestDis, overhead, maxPct)
	if overhead > maxPct {
		t.Errorf("disabled tap costs %.2f%% over the no-tap engine (max %.1f%%)", overhead, maxPct)
	}
}

// TestTapDisabledSemantics pins what the gate relies on: a disabled tap
// delivers nothing, and enabling it mid-life takes effect at the next
// Run — without any engine rebuild.
func TestTapDisabledSemantics(t *testing.T) {
	tr := benchTrace(t)
	sink := NewH2P()
	tap := NewTap(sink)
	tap.Disable()
	e, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.SetObserver(tap)
	e.Run(tr.Clone())
	if sink.Blocks() != 0 {
		t.Fatalf("disabled tap delivered %d events", sink.Blocks())
	}
	tap.Enable()
	e.Run(tr.Clone())
	if sink.Blocks() == 0 {
		t.Fatal("enabled tap delivered nothing")
	}
}
