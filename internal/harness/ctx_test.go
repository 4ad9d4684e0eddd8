package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/trace"
)

func TestWaitCtxReturnsEarly(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	release := make(chan struct{})
	// Occupy the only worker so the probe job never starts.
	blocker := Submit(s, func() (int, error) {
		<-release
		return 0, nil
	})
	probe := Submit(s, func() (int, error) { return 1, nil })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := probe.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("WaitCtx = %v, want context.Canceled", err)
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	// The abandoned job still completes and its result is intact.
	if v, err := probe.Wait(); err != nil || v != 1 {
		t.Errorf("probe after release = %d, %v", v, err)
	}
}

// runConfigCtx submits cfg over ts as a one-configuration batch bound
// to ctx, the way mbbpd's stream path does.
func runConfigCtx(ctx context.Context, s *Scheduler, ts *TraceSet, cfg core.Config) *SuitePromise {
	b := NewBatchCtx(ctx, s, ts)
	p := b.RunConfig(cfg)
	b.Flush()
	return p
}

// An uncancelled context-aware sweep must fold to exactly the serial
// reference — the ctx guard may not perturb results.
func TestRunConfigCtxMatchesSerial(t *testing.T) {
	opts := Options{Instructions: 30_000, Programs: []string{"li", "swim"}}
	ts, err := LoadTracesOn(Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	want, err := RunConfigOn(Serial(), ts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(4)
	defer s.Close()
	got, err := runConfigCtx(context.Background(), s, ts, cfg).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Int != want.Int || got.FP != want.FP {
		t.Errorf("ctx-aware aggregate differs from serial:\n%+v\n%+v", got, want)
	}
	for name, w := range want.Per {
		if got.Per[name] != w {
			t.Errorf("%s: ctx-aware result differs from serial", name)
		}
	}
}

func TestRunConfigCtxCancelled(t *testing.T) {
	opts := Options{Instructions: 50_000, Programs: []string{"li"}}
	ts, err := LoadTracesOn(Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = runConfigCtx(ctx, s, ts, core.DefaultConfig()).Wait()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep error = %v, want context.Canceled", err)
	}
}

func TestRunConfigCtxInvalidConfig(t *testing.T) {
	ts := &TraceSet{}
	cfg := core.DefaultConfig()
	cfg.NumSTs = 3
	_, err := runConfigCtx(context.Background(), DefaultScheduler(), ts, cfg).Wait()
	if !errors.Is(err, core.ErrInvalidConfig) {
		t.Errorf("err = %v, want ErrInvalidConfig", err)
	}
}

// LoadTracesCached must assemble the same TraceSet as LoadTracesOn and
// capture each (program, n) key once across repeated loads.
func TestLoadTracesCached(t *testing.T) {
	opts := Options{Instructions: 20_000, Programs: []string{"li", "go", "swim"}}
	ref, err := LoadTracesOn(Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}

	cache := flight.New[TraceKey, *trace.Buffer](8)
	s := NewScheduler(4)
	defer s.Close()
	for pass := 0; pass < 3; pass++ {
		ts, err := LoadTracesCached(context.Background(), s, opts, cache)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Programs()) != len(ref.Programs()) {
			t.Fatalf("pass %d: %d programs, want %d", pass, len(ts.Programs()), len(ref.Programs()))
		}
		for i, name := range ref.Programs() {
			if ts.Programs()[i] != name {
				t.Fatalf("pass %d: program order %v, want %v", pass, ts.Programs(), ref.Programs())
			}
			got, want := ts.Trace(name), ref.Trace(name)
			if got.Len() != want.Len() {
				t.Fatalf("%s: %d records, want %d", name, got.Len(), want.Len())
			}
			if got.At(0) != want.At(0) || got.At(int(got.Len())-1) != want.At(int(want.Len())-1) {
				t.Errorf("%s: cached trace content differs", name)
			}
			if ts.Suite(name) != ref.Suite(name) {
				t.Errorf("%s: suite mismatch", name)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (one per program)", st.Misses)
	}
	if st.Hits != 6 {
		t.Errorf("hits = %d, want 6 (two warm passes x three programs)", st.Hits)
	}
}

// TestLoadTracesCachedCapturesInParallel: a cold cached load submits
// every missing capture before it waits on any, so on a one-worker
// pool all four captures queue at once — the depth LoadTracesOn
// reaches — instead of one at a time. A job holding the only worker
// keeps the queue from draining until the load has submitted all it
// will submit before waiting.
func TestLoadTracesCachedCapturesInParallel(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	held, hold := make(chan struct{}), make(chan struct{})
	Submit(s, func() (struct{}, error) { close(held); <-hold; return struct{}{}, nil })
	<-held

	opts := Options{Instructions: 20_000, Programs: []string{"li", "go", "swim", "compress"}}
	cache := flight.New[TraceKey, *trace.Buffer](8)
	loaded := make(chan error, 1)
	go func() {
		_, err := LoadTracesCached(context.Background(), s, opts, cache)
		loaded <- err
	}()
	want := uint64(1 + len(opts.Programs))
	for deadline := time.Now().Add(2 * time.Second); s.Stats().Submits < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MaxQueueDepth; got != len(opts.Programs) {
		t.Errorf("max queue depth = %d, want %d (every capture submitted before the first wait)", got, len(opts.Programs))
	}
	if st := cache.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 4 misses and no hits", st)
	}
}
