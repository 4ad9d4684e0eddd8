package mbbp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRunManyMatchesRun: every RunMany result is identical to the
// corresponding single Run over the same trace, including across a
// geometry split (normal + self-aligned lanes in one call).
func TestRunManyMatchesRun(t *testing.T) {
	tr, err := WorkloadTrace("li", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		DefaultConfig(),
		NewConfig(WithHistoryBits(12)),
		NewConfig(WithCache(CacheSelfAligned, 8)),
		NewConfig(WithSingleBlock()),
	}
	ctx := context.Background()
	many, err := RunMany(ctx, cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(many), len(cfgs))
	}
	for i, cfg := range cfgs {
		solo, err := Run(ctx, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if many[i] != solo {
			t.Errorf("config %d diverges:\n many %+v\n solo %+v", i, many[i], solo)
		}
	}
}

// TestRunManyDuplicates: a configuration listed twice shares one lane
// and still comes back at both positions, each equal to its own Run.
func TestRunManyDuplicates(t *testing.T) {
	tr, err := WorkloadTrace("li", 40_000)
	if err != nil {
		t.Fatal(err)
	}
	a := DefaultConfig()
	b := NewConfig(WithCache(CacheSelfAligned, 8))
	cfgs := []Config{a, b, a}
	ctx := context.Background()
	many, err := RunMany(ctx, cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(many), len(cfgs))
	}
	for i, cfg := range cfgs {
		solo, err := Run(ctx, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if many[i] != solo {
			t.Errorf("config %d diverges:\n many %+v\n solo %+v", i, many[i], solo)
		}
	}
}

// TestRunManyErrors: nil sources, empty sets and invalid configurations
// are rejected before any simulation, with the config index named.
func TestRunManyErrors(t *testing.T) {
	tr, err := WorkloadTrace("li", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := RunMany(ctx, []Config{DefaultConfig()}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RunMany(ctx, nil, tr); err == nil {
		t.Error("empty config set accepted")
	}
	bad := DefaultConfig()
	bad.HistoryBits = -3
	_, err = RunMany(ctx, []Config{DefaultConfig(), bad}, tr)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "config 1") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestRunManyCancellation: a pre-cancelled context yields no results.
func TestRunManyCancellation(t *testing.T) {
	tr, err := WorkloadTrace("li", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMany(ctx, []Config{DefaultConfig()}, tr); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSharedBufferConcurrentRuns: Run, RunMany and ScalarMispredictRate
// each walk a private cursor, so concurrent calls on one shared buffer
// all equal the serial result, and the caller's own cursor stays where
// it was.
func TestSharedBufferConcurrentRuns(t *testing.T) {
	tr, err := WorkloadTrace("li", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{DefaultConfig(), NewConfig(WithHistoryBits(12)), NewConfig(WithSingleBlock())}
	bg := context.Background()
	wantOne, err := Run(bg, cfgs[0], tr)
	if err != nil {
		t.Fatal(err)
	}
	wantMany, err := RunMany(bg, cfgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantRate := ScalarMispredictRate(tr, 10, 8)

	tr.Reset()
	tr.Next()
	live, cancel := context.WithCancel(bg)
	defer cancel()
	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan string, 3*callers)
	for i := 0; i < callers; i++ {
		ctx := bg
		if i%2 == 1 {
			ctx = live // a bound cursor as well as an unbound one
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			if got, err := Run(ctx, cfgs[0], tr); err != nil || got != wantOne {
				errs <- fmt.Sprintf("Run = %d instructions, %v; serial %d", got.Instructions, err, wantOne.Instructions)
			}
		}()
		go func() {
			defer wg.Done()
			got, err := RunMany(ctx, cfgs, tr)
			if err != nil || !reflect.DeepEqual(got, wantMany) {
				errs <- fmt.Sprintf("RunMany differs from serial (err %v)", err)
			}
		}()
		go func() {
			defer wg.Done()
			if got := ScalarMispredictRate(tr, 10, 8); got != wantRate {
				errs <- fmt.Sprintf("ScalarMispredictRate = %v, serial %v", got, wantRate)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if r, ok := tr.Next(); !ok || r != tr.At(1) {
		t.Errorf("caller's cursor moved: next = %+v, %v; want record 1", r, ok)
	}
}
