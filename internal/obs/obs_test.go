package obs

import (
	"strings"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
	"mbbp/internal/workload"
)

// newEngine builds a default-configuration engine.
func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	e, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runWorkload(t testing.TB, e *core.Engine, program string, n uint64) metrics.Result {
	t.Helper()
	b, err := workload.Get(program)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(n)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(tr)
}

func TestTapGateDisablesDelivery(t *testing.T) {
	e := newEngine(t)
	sink := NewH2P()
	tap := NewTap(sink)
	e.SetObserver(tap)

	res := runWorkload(t, e, "li", 20_000)
	if sink.Blocks() != res.Blocks {
		t.Fatalf("enabled tap delivered %d events for %d blocks", sink.Blocks(), res.Blocks)
	}
	seen := sink.Blocks()

	tap.Disable()
	runWorkload(t, e, "li", 20_000)
	if sink.Blocks() != seen {
		t.Errorf("disabled tap still delivered events: %d→%d", seen, sink.Blocks())
	}

	tap.Enable()
	runWorkload(t, e, "li", 20_000)
	if sink.Blocks() == seen {
		t.Error("re-enabled tap delivered nothing")
	}
}

func TestTapObserveChecksGateDirectly(t *testing.T) {
	sink := NewH2P()
	tap := NewTap(sink)
	tap.Disable()
	tap.Observe(core.Event{Block: 1})
	if sink.Blocks() != 0 {
		t.Error("disabled tap forwarded a direct Observe")
	}
	tap.Enable()
	tap.Observe(core.Event{Block: 2})
	if sink.Blocks() != 1 {
		t.Error("enabled tap dropped a direct Observe")
	}
}

func TestAttributionTopDeterministicAndConsistent(t *testing.T) {
	run := func() *H2P {
		e := newEngine(t)
		att := NewH2P()
		e.SetObserver(att)
		runWorkload(t, e, "gcc", 50_000)
		return att
	}
	a, b := run(), run()

	if a.Blocks() == 0 || a.Sites() == 0 {
		t.Fatal("attribution saw nothing")
	}
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		ta, tb := a.KindTop(k, 10), b.KindTop(k, 10)
		if len(ta) != len(tb) {
			t.Fatalf("%v: run-to-run top size differs (%d vs %d)", k, len(ta), len(tb))
		}
		var sum uint64
		for i := range ta {
			if ta[i] != tb[i] {
				t.Errorf("%v: top[%d] differs across identical runs: %+v vs %+v", k, i, ta[i], tb[i])
			}
			if i > 0 && ta[i].Cycles > ta[i-1].Cycles {
				t.Errorf("%v: top not sorted by cycles at %d", k, i)
			}
			sum += ta[i].Cycles
		}
		if sum > a.KindCycles(k) {
			t.Errorf("%v: top sites carry %d cycles, kind total is %d", k, sum, a.KindCycles(k))
		}
		full := a.KindTop(k, 0)
		var all, events uint64
		for _, s := range full {
			all += s.Cycles
			events += s.Events
		}
		if all != a.KindCycles(k) {
			t.Errorf("%v: site cycles sum %d != kind total %d", k, all, a.KindCycles(k))
		}
		if events != a.KindEvents(k) {
			t.Errorf("%v: site events sum %d != kind total %d", k, events, a.KindEvents(k))
		}
	}
}

func TestAttributionAddMerges(t *testing.T) {
	a, b := NewH2P(), NewH2P()
	ev := core.Event{Start: 64, Penalty: 4, Kind: metrics.CondMispredict}
	a.Observe(ev)
	b.Observe(ev)
	b.Observe(core.Event{Start: 128, Penalty: 2, Kind: metrics.ReturnMispredict})
	a.Add(b)
	if got := a.KindCycles(metrics.CondMispredict); got != 8 {
		t.Errorf("merged cond cycles = %d, want 8", got)
	}
	if got := a.KindCycles(metrics.ReturnMispredict); got != 2 {
		t.Errorf("merged return cycles = %d, want 2", got)
	}
	if got := a.KindEvents(metrics.CondMispredict); got != 2 {
		t.Errorf("merged cond events = %d, want 2", got)
	}
	top := a.KindTop(metrics.CondMispredict, 1)
	if len(top) != 1 || top[0].Addr != 64 || top[0].Events != 2 || top[0].Cycles != 8 {
		t.Errorf("merged top = %+v", top)
	}
	if a.Blocks() != 3 {
		t.Errorf("merged blocks = %d, want 3", a.Blocks())
	}
}

func TestCountersMatchResult(t *testing.T) {
	e := newEngine(t)
	c := NewCounters()
	e.SetObserver(c)
	res := runWorkload(t, e, "go", 40_000)
	s := c.Snapshot()
	if s.Blocks != res.Blocks {
		t.Errorf("counter blocks %d != result blocks %d", s.Blocks, res.Blocks)
	}
	var cycles uint64
	for k := range s.PenaltyCycles {
		cycles += s.PenaltyCycles[k]
	}
	// The tap reports the dominant charge per block, so its cycle total
	// is bounded by (and close to) the result's.
	if cycles == 0 || cycles > res.TotalPenaltyCycles() {
		t.Errorf("counter cycles %d vs result %d", cycles, res.TotalPenaltyCycles())
	}
	if s.Redirects == 0 {
		t.Error("no redirects counted on a go run")
	}
}

func TestSpans(t *testing.T) {
	s := NewSpans(time.Now())
	s.Mark("admit")
	s.Mark("queue")
	s.Mark("render")
	if got := len(s.Spans()); got != 3 {
		t.Fatalf("spans = %d, want 3", got)
	}
	h := s.Header()
	for _, stage := range []string{"admit;dur=", "queue;dur=", "render;dur="} {
		if !strings.Contains(h, stage) {
			t.Errorf("header %q missing %q", h, stage)
		}
	}
	if strings.Count(h, ", ") != 2 {
		t.Errorf("header %q should have two separators", h)
	}
	v := s.LogValue()
	if len(v.Group()) != 3 {
		t.Errorf("log value has %d attrs, want 3", len(v.Group()))
	}
}
