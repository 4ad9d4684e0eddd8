package harness

import (
	"bytes"
	"errors"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/icache"
)

// TestSubmitRecoversPanic: a panicking job resolves its own future to a
// *PanicError carrying the panic value and stack; the jobs around it
// complete, and the pool keeps serving — on the serial scheduler and
// on the pool.
func TestSubmitRecoversPanic(t *testing.T) {
	pool := NewScheduler(2)
	defer pool.Close()
	for _, s := range []*Scheduler{Serial(), pool} {
		var futs []*Future[int]
		for i := 0; i < 20; i++ {
			futs = append(futs, Submit(s, func() (int, error) {
				if i == 7 {
					panic("boom")
				}
				return i, nil
			}))
		}
		for i, f := range futs {
			v, err := f.Wait()
			if i != 7 {
				if err != nil || v != i {
					t.Fatalf("workers=%d job %d: %d, %v", s.Workers(), i, v, err)
				}
				continue
			}
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "boom" {
				t.Fatalf("workers=%d panicking job: err %v, want a *PanicError for boom", s.Workers(), err)
			}
			if !bytes.Contains(pe.Stack, []byte("TestSubmitRecoversPanic")) {
				t.Errorf("panic stack does not show the job:\n%s", pe.Stack)
			}
		}
		if v, err := Submit(s, func() (int, error) { return 42, nil }).Wait(); err != nil || v != 42 {
			t.Fatalf("workers=%d: scheduler broken after a panic: %d, %v", s.Workers(), v, err)
		}
	}
}

// panicObserver panics on the first block it sees.
type panicObserver struct{}

func (panicObserver) Observe(core.Event) { panic("observer fault") }

// TestBatchLanePanicFailsGroup: a panic inside one lane job fails every
// lane future of that (geometry group, program) job — so every
// configuration of the group — while a configuration in another group
// of the same batch completes with its independent result.
func TestBatchLanePanicFailsGroup(t *testing.T) {
	faulty := core.DefaultConfig()
	sibling := core.DefaultConfig()
	sibling.HistoryBits = 8
	other := core.DefaultConfig()
	other.Geometry = icache.ForKind(icache.Extended, 8)
	want, err := RunConfigAsync(Serial(), testTraces, other).Wait()
	if err != nil {
		t.Fatal(err)
	}
	victim := testTraces.Programs()[1]
	ts := testTraces.WithConfigObserver(func(program string, cfg core.Config) core.Observer {
		if program == victim && cfg == faulty {
			return panicObserver{}
		}
		return nil
	})

	pool := NewScheduler(2)
	defer pool.Close()
	for _, s := range []*Scheduler{Serial(), pool} {
		b := NewBatch(s, ts)
		pf, ps, po := b.RunConfig(faulty), b.RunConfig(sibling), b.RunConfig(other)
		b.Flush()
		for name, p := range map[string]*SuitePromise{"faulty": pf, "sibling": ps} {
			var pe *PanicError
			if _, err := p.Wait(); !errors.As(err, &pe) || pe.Value != "observer fault" {
				t.Errorf("workers=%d %s lane: err %v, want the observer's *PanicError", s.Workers(), name, err)
			}
		}
		got, err := po.Wait()
		if err != nil {
			t.Fatalf("workers=%d other group: %v", s.Workers(), err)
		}
		if !sameSuite(got, want) {
			t.Errorf("workers=%d other group: result differs from its independent run", s.Workers())
		}
	}
}
