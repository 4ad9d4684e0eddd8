package obs

import (
	"io"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// The three tap states whose relative cost the observability layer
// promises: no observer at all, a tap installed but disabled (must cost
// the same — the ObserverGate hoist makes both a nil runObs), and a
// live ring tap (the price of actually recording). Run with:
//
//	go test -run NONE -bench BenchmarkEngine ./internal/obs/
//
// scripts/obs_overhead.sh and the CI obs-overhead step enforce the
// disabled≈absent equality via TestTapDisabledOverhead.

func benchTrace(b testing.TB) *trace.Buffer {
	b.Helper()
	w, err := workload.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := w.Trace(200_000)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchEngine(b *testing.B, tr *trace.Buffer, o core.Observer) {
	b.Helper()
	e, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	e.SetObserver(o)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res := e.Run(tr)
		instrs += res.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

func BenchmarkEngineNoTap(b *testing.B) {
	benchEngine(b, benchTrace(b), nil)
}

func BenchmarkEngineTapDisabled(b *testing.B) {
	tap := NewTap(NewRing(1024))
	tap.Disable()
	benchEngine(b, benchTrace(b), tap)
}

func BenchmarkEngineTapRing(b *testing.B) {
	benchEngine(b, benchTrace(b), NewTap(NewRing(1024)))
}

func BenchmarkEngineTapNDJSON(b *testing.B) {
	benchEngine(b, benchTrace(b), NewTap(NewNDJSON(io.Discard)))
}

func BenchmarkEngineTapAttribution(b *testing.B) {
	benchEngine(b, benchTrace(b), NewH2P())
}
