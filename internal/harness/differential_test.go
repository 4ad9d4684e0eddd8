package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// Every experiment is pinned twice over, driven by the descriptor list:
// each form it renders must match its golden file byte for byte
// (column layout, formatting precision, CSV headers and every number
// against the pinned-seed 120k-instruction test traces), and running it
// on a 4-worker pool must render byte-identically to the serial path
// (Serial() runs jobs inline at submission, i.e. the pre-scheduler
// execution order). A new experiment is covered as soon as it joins
// Experiments; create its goldens with
//
//	go test ./internal/harness/ -run TestDifferentialGolden -update
//
// TestGoldenRegression pins the default configuration's raw counts.
// Bit-packed predictor state is checked against the wide-slice oracles
// in the pht, bitable and seltab tests, and lane-grouped batches
// against one-config batches across every experiment dimension by
// TestBatchMatchesPerConfig (batch_test.go).

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenParams runs every experiment at its defaults, except that seeds,
// which captures its own traces, runs on a reduced grid.
var goldenParams = Params{Options: Options{Instructions: 30_000, Programs: []string{"compress", "swim"}}}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

// goldenName names a form's golden file: <experiment>_<form>, or just
// <experiment> when the experiment renders one form only.
func goldenName(ex Experiment, f Form) string {
	forms := 0
	for g := Form(0); g < numForms; g++ {
		if ex.Has(g) {
			forms++
		}
	}
	if forms == 1 {
		return ex.String()
	}
	return ex.String() + "_" + f.String()
}

// renderForms runs ex on s and renders every form it has.
func renderForms(t *testing.T, ex Experiment, s *Scheduler) [numForms][]byte {
	t.Helper()
	render, err := ex.Start(s, testTraces, goldenParams)()
	if err != nil {
		t.Fatal(err)
	}
	var out [numForms][]byte
	for f := Form(0); f < numForms; f++ {
		if ex.Has(f) {
			var buf bytes.Buffer
			if err := render(&buf, f); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			out[f] = buf.Bytes()
		}
	}
	return out
}

func TestDifferentialGolden(t *testing.T) {
	pool := NewScheduler(4)
	defer pool.Close()
	for _, ex := range append(append([]Experiment(nil), Experiments...), Report) {
		t.Run(ex.String(), func(t *testing.T) {
			serial := renderForms(t, ex, Serial())
			parallel := renderForms(t, ex, pool)
			for f := Form(0); f < numForms; f++ {
				if !ex.Has(f) {
					continue
				}
				t.Run(f.String(), func(t *testing.T) {
					if len(serial[f]) == 0 {
						t.Fatal("empty rendering")
					}
					checkGolden(t, goldenName(ex, f), serial[f])
					if !bytes.Equal(serial[f], parallel[f]) {
						t.Errorf("rendering differs between serial and parallel:\n--- serial ---\n%s\n--- parallel ---\n%s",
							serial[f], parallel[f])
					}
				})
			}
		})
	}
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
		for i, ex := range []Experiment{Fig6, Fig8} {
			render, err := ex.Start(s, testTraces, Params{})()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", ex, workers, err)
			}
			var b bytes.Buffer
			if err := render(&b, FormText); err != nil {
				t.Fatal(err)
			}
			out[i] = b.String()
		}
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
