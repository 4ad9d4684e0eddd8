package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mbbp/internal/core"
)

// These tests pin the package's concurrency contracts under -race:
// a Tap and its Counters sink are shared across engines and toggled
// from other goroutines; an engine's own event sink, Spans, and H2P are
// single-owner values that many goroutines use *in parallel* (one
// each) — the lane-batch and per-request shapes the harness and server
// actually run.

// TestTapSharedToggleRace: one Tap → Counters chain shared by several
// engines running concurrently while another goroutine flips the tap.
// The assertion is freedom from races and from lost sink integrity —
// after a final enabled run, events flow again.
func TestTapSharedToggleRace(t *testing.T) {
	counters := NewCounters()
	tap := NewTap(counters)
	const engines = 4

	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				return
			default:
				tap.Disable()
				time.Sleep(time.Microsecond)
				tap.Enable()
			}
		}
	}()

	programs := []string{"li", "go", "gcc", "swim"}
	var wg sync.WaitGroup
	wg.Add(engines)
	for i := 0; i < engines; i++ {
		go func(program string) {
			defer wg.Done()
			e := newEngine(t)
			e.SetObserver(tap)
			for r := 0; r < 3; r++ {
				runWorkload(t, e, program, 10_000)
			}
		}(programs[i])
	}
	wg.Wait() // engines first, then stop the toggler
	close(stop)
	<-toggled

	tap.Enable()
	before := counters.Snapshot().Blocks
	e := newEngine(t)
	e.SetObserver(tap)
	runWorkload(t, e, "li", 10_000)
	if counters.Snapshot().Blocks == before {
		t.Error("enabled tap delivered nothing after concurrent toggling")
	}
}

// recorder is a single-owner sink keeping every event it observes.
type recorder struct{ events []core.Event }

func (r *recorder) Observe(ev core.Event) { r.events = append(r.events, ev) }

// TestRingsConcurrentEngines: one recording sink per engine, all
// engines running in parallel (the documented ownership model). Each
// sink must hold exactly its own engine's event stream — equal, event
// for event, to a serial rerun.
func TestRingsConcurrentEngines(t *testing.T) {
	programs := []string{"li", "go", "swim"}
	recs := make([]*recorder, len(programs))
	var wg sync.WaitGroup
	wg.Add(len(programs))
	for i, program := range programs {
		recs[i] = &recorder{}
		go func(r *recorder, program string) {
			defer wg.Done()
			e := newEngine(t)
			e.SetObserver(r)
			runWorkload(t, e, program, 20_000)
		}(recs[i], program)
	}
	wg.Wait()

	for i, program := range programs {
		if len(recs[i].events) == 0 {
			t.Fatalf("%s: no events recorded", program)
		}
		ref := &recorder{}
		e := newEngine(t)
		e.SetObserver(ref)
		runWorkload(t, e, program, 20_000)
		if !reflect.DeepEqual(recs[i].events, ref.events) {
			t.Errorf("%s: concurrent event stream differs from serial rerun", program)
		}
	}
}

// TestSpansConcurrentRequests: one Spans per goroutine (the
// per-request shape of the sweep handler); the timelines must render
// independently and completely.
func TestSpansConcurrentRequests(t *testing.T) {
	const requests = 8
	var wg sync.WaitGroup
	headers := make([]string, requests)
	wg.Add(requests)
	for i := 0; i < requests; i++ {
		go func(i int) {
			defer wg.Done()
			sp := NewSpans(time.Now())
			for _, stage := range []string{"admit", "queue", "capture", "simulate", "render"} {
				sp.Mark(stage)
			}
			headers[i] = sp.Header()
		}(i)
	}
	wg.Wait()
	for i, h := range headers {
		for _, stage := range []string{"admit", "queue", "capture", "simulate", "render"} {
			if !strings.Contains(h, stage+";dur=") {
				t.Errorf("request %d: header %q missing stage %s", i, h, stage)
			}
		}
	}
}

// TestH2PConcurrentPerEngineMerge mirrors the server's use: one H2P
// accumulator per engine running concurrently, merged afterwards with
// Add. The merge must equal a single accumulator fed serially.
func TestH2PConcurrentPerEngineMerge(t *testing.T) {
	programs := []string{"li", "go", "swim"}
	parts := make([]*H2P, len(programs))
	var wg sync.WaitGroup
	wg.Add(len(programs))
	for i, program := range programs {
		parts[i] = NewH2P()
		go func(h *H2P, program string) {
			defer wg.Done()
			e := newEngine(t)
			e.SetObserver(h)
			runWorkload(t, e, program, 20_000)
		}(parts[i], program)
	}
	wg.Wait()

	merged := NewH2P()
	for _, p := range parts {
		merged.Add(p)
	}
	ref := NewH2P()
	for _, program := range programs {
		e := newEngine(t)
		e.SetObserver(ref)
		runWorkload(t, e, program, 20_000)
	}
	if merged.TotalCycles() != ref.TotalCycles() || merged.Blocks() != ref.Blocks() ||
		merged.Sites() != ref.Sites() {
		t.Errorf("merged (%d cycles, %d blocks, %d sites) != serial (%d, %d, %d)",
			merged.TotalCycles(), merged.Blocks(), merged.Sites(),
			ref.TotalCycles(), ref.Blocks(), ref.Sites())
	}
	if !reflect.DeepEqual(merged.Top(10), ref.Top(10)) {
		t.Error("merged top blocks differ from serial reference")
	}
}
