package harness

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestScalingFloor is the multi-core scaling gate: the fig6 sweep over
// the full suite at 100k instructions per program must run at least
// 2.5x faster on a fresh pool of 4 workers than on a fresh pool of 1,
// with GOMAXPROCS pinned to the worker count. It is a timing test, so
// it only runs when SCALING_GATE=1 is set (the CI scaling-smoke job
// sets it); the default `go test ./...` stays deterministic.
//
// With the gate on, a host with fewer than 4 cores fails rather than
// skips: a wall-clock speedup on an oversubscribed host proves
// nothing, and a skip would let a small runner green-light a scaling
// regression. The two pools run interleaved for a few rounds and the
// best round of each is compared, which damps scheduler noise.
func TestScalingFloor(t *testing.T) {
	if os.Getenv("SCALING_GATE") == "" {
		t.Skip("timing gate; set SCALING_GATE=1 to run")
	}
	const (
		instructions = 100_000
		workers      = 4
		floor        = 2.5
		rounds       = 3
	)
	if n := runtime.NumCPU(); n < workers {
		t.Fatalf("scaling gate needs >= %d cores, host has %d — run on a multi-core host", workers, n)
	}
	ts, err := LoadTraces(Options{Instructions: instructions})
	if err != nil {
		t.Fatal(err)
	}
	timeFig6 := func(w int) time.Duration {
		t.Helper()
		prev := runtime.GOMAXPROCS(w)
		defer runtime.GOMAXPROCS(prev)
		pool := NewScheduler(w)
		defer pool.Close()
		start := time.Now()
		if _, err := Fig6.Run(pool, ts, Params{})(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	var best1, bestN time.Duration
	for r := 0; r < rounds; r++ {
		if d := timeFig6(1); best1 == 0 || d < best1 {
			best1 = d
		}
		if d := timeFig6(workers); bestN == 0 || d < bestN {
			bestN = d
		}
	}
	speedup := float64(best1) / float64(bestN)
	t.Logf("fig6: 1 worker %v, %d workers %v, speedup %.2fx (floor %.2fx, efficiency %.2f)",
		best1, workers, bestN, speedup, floor, speedup/workers)
	if speedup < floor {
		t.Errorf("fig6 speedup at %d workers = %.2fx, floor %.2fx", workers, speedup, floor)
	}
}
