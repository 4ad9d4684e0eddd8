package harness

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"mbbp/internal/core"
)

// The scheduling determinism contract, checked for every experiment:
// running it on the work-stealing pool must produce output
// byte-identical to the serial path (Serial() runs jobs inline at
// submission, i.e. the pre-scheduler execution order). Each case renders
// the human table and, where one exists, the CSV form, and compares the
// bytes of the two runs.
//
// Bit-packed predictor state is checked against the wide-slice oracles
// in the pht, bitable and seltab tests, and lane-grouped batches
// against one-config batches across every experiment dimension by
// TestBatchMatchesPerConfig (batch_test.go).

// differ runs one experiment serially and on the pool and byte-compares
// every rendering the experiment has.
func differ(t *testing.T, name string, run func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error)) {
	t.Helper()
	pool := NewScheduler(4)
	defer pool.Close()

	render := func(label string, s *Scheduler, ts *TraceSet) []string {
		t.Helper()
		outs, err := run(s, ts)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, label, err)
		}
		var rendered []string
		for _, out := range outs {
			var buf bytes.Buffer
			if err := out(&buf); err != nil {
				t.Fatalf("%s (%s): render: %v", name, label, err)
			}
			rendered = append(rendered, buf.String())
		}
		return rendered
	}

	serial := render("serial", Serial(), testTraces)
	parallel := render("parallel", pool, testTraces)
	if len(serial) != len(parallel) {
		t.Fatalf("%s: rendering count differs between serial and parallel", name)
	}
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Errorf("%s: rendering %d is empty", name, i)
		}
		if serial[i] != parallel[i] {
			t.Errorf("%s: rendering %d differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, i, serial[i], parallel[i])
		}
	}
}

func TestDifferentialFig6(t *testing.T) {
	differ(t, "fig6", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Fig6Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderFig6(w, rows); return nil },
			func(w io.Writer) error { return CSVFig6(w, rows) },
		}, nil
	})
}

func TestDifferentialFig7(t *testing.T) {
	differ(t, "fig7", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Fig7Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderFig7(w, rows); return nil },
			func(w io.Writer) error { return CSVFig7(w, rows) },
		}, nil
	})
}

func TestDifferentialFig8(t *testing.T) {
	differ(t, "fig8", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Fig8Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderFig8(w, rows); return nil },
			func(w io.Writer) error { return CSVFig8(w, rows) },
		}, nil
	})
}

func TestDifferentialFig9(t *testing.T) {
	differ(t, "fig9", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Fig9Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderFig9(w, rows); return nil },
			func(w io.Writer) error { return CSVFig9(w, rows) },
		}, nil
	})
}

func TestDifferentialTable5(t *testing.T) {
	differ(t, "table5", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Table5Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderTable5(w, rows); return nil },
			func(w io.Writer) error { return CSVTable5(w, rows) },
		}, nil
	})
}

func TestDifferentialTable6(t *testing.T) {
	differ(t, "table6", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := Table6Async(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderTable6(w, rows); return nil },
			func(w io.Writer) error { return CSVTable6(w, rows) },
		}, nil
	})
}

func TestDifferentialCompare(t *testing.T) {
	differ(t, "compare", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		c, err := CompareAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderComparison(w, c); return nil },
		}, nil
	})
}

// TestDifferentialPredictors pins the mixed-predictor lane path: the
// strategy-comparison grid groups paper and TAGE lanes into ONE lane
// set (shared geometry), and its output must stay byte-identical to
// per-config engine runs, serially and on the pool.
func TestDifferentialPredictors(t *testing.T) {
	differ(t, "predictors", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := ComparePredictorsAsync(s, ts, core.PredictorTAGE)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderPredictors(w, rows); return nil },
			func(w io.Writer) error { return CSVPredictors(w, rows) },
		}, nil
	})
}

func TestDifferentialBaseline(t *testing.T) {
	differ(t, "baseline", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := BaselineAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderBaseline(w, rows); return nil },
		}, nil
	})
}

func TestDifferentialExtBlocks(t *testing.T) {
	differ(t, "extblocks", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := ExtBlocksAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderExtBlocks(w, rows); return nil },
		}, nil
	})
}

func TestDifferentialAblation(t *testing.T) {
	differ(t, "ablation", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := AblationPHTAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderAblationPHT(w, rows); return nil },
		}, nil
	})
}

func TestDifferentialWidths(t *testing.T) {
	differ(t, "widths", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := WidthsAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderWidths(w, rows); return nil },
		}, nil
	})
}

func TestDifferentialICache(t *testing.T) {
	differ(t, "icache", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := ICacheAsync(s, ts)()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderICache(w, rows); return nil },
		}, nil
	})
}

// TestDifferentialSeeds covers the one driver that captures its own
// traces (seed sweep) — the trickiest interleaving, since trace capture
// jobs and simulation jobs coexist on the pool. The sweep ignores the
// shared trace set, so only the serial-vs-pool contract applies; a
// reduced grid keeps it fast.
func TestDifferentialSeeds(t *testing.T) {
	pool := NewScheduler(4)
	defer pool.Close()
	opts := Options{Instructions: 30_000, Programs: []string{"compress", "swim"}}
	seeds := []int64{1, 99}
	render := func(s *Scheduler) string {
		t.Helper()
		rows, err := SeedsAsync(s, opts, seeds)()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderSeeds(&buf, rows)
		return buf.String()
	}
	serial, parallel := render(Serial()), render(pool)
	if serial == "" {
		t.Fatal("empty serial rendering")
	}
	if serial != parallel {
		t.Errorf("seeds rendering differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestDifferentialEvents covers the tapped replay: attribution rides on
// observers, which must not perturb results, so the events rendering
// and CSV obey the same serial/parallel byte-identity as every untapped
// experiment.
func TestDifferentialEvents(t *testing.T) {
	differ(t, "events", func(s *Scheduler, ts *TraceSet) ([]func(io.Writer) error, error) {
		rows, err := EventsAsync(s, ts, core.DefaultConfig())()
		if err != nil {
			return nil, err
		}
		return []func(io.Writer) error{
			func(w io.Writer) error { RenderEvents(w, rows, DefaultEventsTopN); return nil },
			func(w io.Writer) error { return CSVEvents(w, rows, DefaultEventsTopN) },
		}, nil
	})
}

// TestDifferentialWorkerCountInvariance is the scaling pipeline's
// correctness half: the worker matrix may only change wall-clock, so
// fig6 and fig8 must render byte-identically at every worker count.
// The pinned set {1, 2, 4, 8} (the scaling floor's 1 and 4 workers,
// plus 2 and an oversubscribed pool) is checked deterministically, then a
// testing/quick property re-samples random pool sizes in 1..8 — the
// scheduler's placement and stealing decisions are worker-count- and
// timing-dependent, so random sizes probe interleavings the fixed set
// cannot. Runs under -race in CI (test job and lane-differential job).
func TestDifferentialWorkerCountInvariance(t *testing.T) {
	renderAt := func(workers int) [2]string {
		t.Helper()
		var s *Scheduler
		if workers == 0 {
			s = Serial()
		} else {
			s = NewScheduler(workers)
			defer s.Close()
		}
		var out [2]string
		rows6, err := Fig6Async(s, testTraces)()
		if err != nil {
			t.Fatalf("fig6 at %d workers: %v", workers, err)
		}
		var b bytes.Buffer
		RenderFig6(&b, rows6)
		out[0] = b.String()
		rows8, err := Fig8Async(s, testTraces)()
		if err != nil {
			t.Fatalf("fig8 at %d workers: %v", workers, err)
		}
		b.Reset()
		RenderFig8(&b, rows8)
		out[1] = b.String()
		return out
	}

	want := renderAt(0) // serial reference
	if want[0] == "" || want[1] == "" {
		t.Fatal("empty serial rendering")
	}
	check := func(workers int) bool {
		got := renderAt(workers)
		if got != want {
			t.Errorf("fig6/fig8 rendering differs between serial and %d workers", workers)
			return false
		}
		return true
	}
	for _, w := range []int{1, 2, 4, 8} {
		check(w)
	}
	prop := func(raw uint8) bool { return check(1 + int(raw%8)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialLoadTraces checks parallel trace capture produces the
// same trace set as serial capture: same order, same record bytes.
func TestDifferentialLoadTraces(t *testing.T) {
	pool := NewScheduler(4)
	defer pool.Close()
	opts := Options{Instructions: 30_000}
	a, err := LoadTracesOn(Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadTracesOn(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Programs()) != len(b.Programs()) {
		t.Fatalf("program counts differ: %d vs %d", len(a.Programs()), len(b.Programs()))
	}
	for i, name := range a.Programs() {
		if b.Programs()[i] != name {
			t.Fatalf("program order differs at %d: %s vs %s", i, name, b.Programs()[i])
		}
		ta, tb := a.Trace(name), b.Trace(name)
		if ta.Len() != tb.Len() {
			t.Fatalf("%s: trace length %d vs %d", name, ta.Len(), tb.Len())
		}
		for j := 0; j < int(ta.Len()); j++ {
			if ta.At(j) != tb.At(j) {
				t.Fatalf("%s: record %d differs", name, j)
			}
		}
	}
}
