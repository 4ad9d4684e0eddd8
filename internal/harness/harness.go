// Package harness drives the paper's experiments: it loads workload
// traces once, sweeps fetch-architecture configurations over them, and
// renders each of the evaluation section's tables and figures
// (Figures 6-9, Tables 5-6, and the §5 cost walkthrough). Every sweep
// is flattened into (configuration × program) jobs on one bounded
// work-stealing pool (see sched.go); results fold in declaration
// order, so output is byte-identical to a serial run.
package harness

import (
	"context"
	"fmt"

	"mbbp/internal/core"
	"mbbp/internal/flight"
	"mbbp/internal/metrics"
	_ "mbbp/internal/tage" // register the TAGE predictor for every consumer
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Instructions is the dynamic trace length per program (the paper
	// used 10^9; the default here is 10^6, which warms every table).
	Instructions uint64
	// Programs restricts the workload set (nil = the full suite).
	Programs []string
	// Warmup runs each engine over its trace once, untimed, before the
	// measured pass — isolating steady-state behavior from cold-start
	// effects. The paper does not warm up (its 10^9-instruction runs
	// drown cold-start noise); this is an analysis aid.
	Warmup bool
}

func (o Options) instructions() uint64 {
	if o.Instructions == 0 {
		return 1_000_000
	}
	return o.Instructions
}

func (o Options) programs() []string {
	if len(o.Programs) == 0 {
		return workload.Names()
	}
	return o.Programs
}

// TraceSet holds one captured trace per program so a sweep re-uses them
// across configurations.
type TraceSet struct {
	order  []string
	traces map[string]*trace.Buffer
	suites map[string]workload.Suite
	warmup bool
	// instructions is the dynamic trace length per program.
	instructions uint64

	// observer, when set, supplies an engine observer per run (see
	// WithObserver).
	observer func(program string, cfg core.Config) core.Observer
}

// WithObserver returns a view of the trace set that installs f's
// observer on every engine run launched through it — the hook the
// observability layer uses to tap engines the harness constructs
// internally (the mbbpd aggregate tap, the events attribution view,
// the H2P history sweep). f is called once per engine run with the
// program name and the run's validated configuration: lane batches
// attach observers per lane, and every lane of a set shares the
// program, so the configuration is the only handle that tells lanes
// apart. Equal configurations in one batch share one lane, so f runs
// once per (program, distinct configuration). f may return a shared
// concurrency-safe observer (obs.Counters) or a fresh one per call; a
// nil return leaves that run untapped. Warmup passes are not observed
// — the observer sees exactly the measured run. Observers cannot change
// results, so every determinism contract holds with or without one.
func (ts *TraceSet) WithObserver(f func(program string, cfg core.Config) core.Observer) *TraceSet {
	out := *ts
	out.observer = f
	return &out
}

// attachObserver installs the set's observer on e for name's measured
// run under cfg, or none: it sets e's observer on every call, nil
// included, so an engine reused from an earlier job never carries that
// job's observer.
func (ts *TraceSet) attachObserver(e *core.Engine, name string, cfg core.Config) {
	var o core.Observer
	if ts.observer != nil {
		o = ts.observer(name, cfg)
	}
	e.SetObserver(o)
}

// newTraceSet returns an empty trace set carrying o's run options —
// the one place every trace set is built, so each option reaches every
// driver, including the ones that capture their own traces.
func newTraceSet(o Options) *TraceSet {
	return &TraceSet{
		traces:       make(map[string]*trace.Buffer),
		suites:       make(map[string]workload.Suite),
		warmup:       o.Warmup,
		instructions: o.instructions(),
	}
}

// LoadTraces captures traces for the options' programs on the default
// scheduler.
func LoadTraces(o Options) (*TraceSet, error) {
	return LoadTracesOn(DefaultScheduler(), o)
}

// LoadTracesOn captures the per-program traces in parallel on s — the
// programs are independent and deterministic, so capture order does not
// matter — and assembles them in suite (declaration) order. It is
// LoadTracesCached with a private cache.
func LoadTracesOn(s *Scheduler, o Options) (*TraceSet, error) {
	return LoadTracesCached(context.Background(), s, o, nil)
}

// TraceKey identifies one captured trace in a trace cache.
type TraceKey struct {
	Program string
	N       uint64
}

// LoadTracesCached assembles a TraceSet, sharing capture through c:
// each program's trace is captured at most once per (program,
// instructions) key across every concurrent caller, which is how the
// simulation service keeps N simultaneous sweep requests from
// capturing the workload suite N times. A nil c stands for a private
// cache. Cached buffers are shared; consumers Clone them before
// reading.
//
// The programs go through c.Do as one key list. Its fill submits a
// capture job on s for every program this call claimed before it
// waits on any, so a cold load captures in parallel; the waiting
// happens in the caller's goroutine, so the pool's leaf-job discipline
// holds (a pool job never blocks on another). The captures this call
// owns are waited out and published even if ctx ends; cancelling ctx
// abandons only the waits on other callers' captures. A failed capture
// fails the load, and none of the captures it claimed is published.
func LoadTracesCached(ctx context.Context, s *Scheduler, o Options, c *flight.Cache[TraceKey, *trace.Buffer]) (*TraceSet, error) {
	names := o.programs()
	if c == nil {
		c = flight.New[TraceKey, *trace.Buffer](len(names))
	}
	n := o.instructions()
	benches := make([]*workload.Benchmark, len(names))
	keys := make([]TraceKey, len(names))
	for i, name := range names {
		b, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		benches[i], keys[i] = b, TraceKey{Program: name, N: n}
	}
	bufs, _, err := c.Do(ctx, keys, nil, func(claimed []int) ([]*trace.Buffer, error) {
		futs := make([]*Future[*trace.Buffer], len(claimed))
		for j, i := range claimed {
			b, name := benches[i], names[i]
			futs[j] = Submit(s, func() (*trace.Buffer, error) {
				tr, err := b.Trace(n)
				if err != nil {
					return nil, fmt.Errorf("harness: tracing %s: %w", name, err)
				}
				return tr, nil
			})
		}
		out := make([]*trace.Buffer, len(claimed))
		for j, f := range futs {
			var err error
			if out[j], err = f.Wait(); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	ts := newTraceSet(o)
	for i, name := range names {
		ts.order = append(ts.order, name)
		ts.traces[name] = bufs[i]
		ts.suites[name] = benches[i].Suite
	}
	return ts, nil
}

// Programs returns the program names in suite order.
func (ts *TraceSet) Programs() []string { return ts.order }

// Trace returns the captured trace for a program.
func (ts *TraceSet) Trace(name string) *trace.Buffer { return ts.traces[name] }

// Suite returns the program's suite.
func (ts *TraceSet) Suite(name string) workload.Suite { return ts.suites[name] }

// SuiteResult aggregates per-program results into integer and FP totals,
// the way the paper reports suite numbers (raw event counts summed).
type SuiteResult struct {
	Int metrics.Result
	FP  metrics.Result
	Per map[string]metrics.Result
}

// SuitePromise is a pending SuiteResult: one submitted job per program,
// folded in suite order at Wait. The fold order is fixed, so the result
// is identical however the jobs were interleaved.
type SuitePromise struct {
	ts   *TraceSet
	futs []*Future[metrics.Result]
	err  error // submission-time failure (e.g. invalid config)
}

// Wait collects the per-program results and folds them, in suite order.
func (p *SuitePromise) Wait() (*SuiteResult, error) {
	return p.waitEach(context.Background(), nil)
}

// WaitCtx is Wait that stops folding once ctx is done. Jobs of a batch
// built with the same ctx (NewBatchCtx) wind down on their own: queued
// ones never start, running ones stop at their block reader's next
// cancellation poll.
func (p *SuitePromise) WaitCtx(ctx context.Context) (*SuiteResult, error) {
	return p.waitEach(ctx, nil)
}

// WaitEach folds like Wait but also hands each per-program result to
// fn as soon as it is available, in suite (declaration) order — the
// streaming responses of the simulation service are produced here. A
// non-nil error from fn abandons the fold.
func (p *SuitePromise) WaitEach(ctx context.Context, fn func(name string, r metrics.Result) error) (*SuiteResult, error) {
	return p.waitEach(ctx, fn)
}

func (p *SuitePromise) waitEach(ctx context.Context, fn func(string, metrics.Result) error) (*SuiteResult, error) {
	if p.err != nil {
		return nil, p.err
	}
	out := &SuiteResult{Per: make(map[string]metrics.Result)}
	out.Int.Program = "CINT95"
	out.FP.Program = "CFP95"
	for i, name := range p.ts.order {
		r, err := p.futs[i].WaitCtx(ctx)
		if err != nil {
			return nil, err
		}
		out.Per[name] = r
		if p.ts.suites[name] == workload.FP {
			out.FP.Add(r)
		} else {
			out.Int.Add(r)
		}
		if fn != nil {
			if err := fn(name, r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// suitePromise submits one job per program of the trace set.
func suitePromise(s *Scheduler, ts *TraceSet, run func(name string) (metrics.Result, error)) *SuitePromise {
	p := &SuitePromise{ts: ts}
	for _, name := range ts.order {
		name := name
		p.futs = append(p.futs, Submit(s, func() (metrics.Result, error) {
			return run(name)
		}))
	}
	return p
}

// RunConfig runs one configuration over every trace in the set on the
// default scheduler and folds the results in suite order.
func RunConfig(ts *TraceSet, cfg core.Config) (*SuiteResult, error) {
	return RunConfigOn(DefaultScheduler(), ts, cfg)
}

// RunConfigOn is RunConfig on an explicit scheduler: a
// one-configuration batch, flushed. Each program's job gets a fresh
// engine (the paper simulates each benchmark independently) and its own
// read cursor over the shared trace records.
func RunConfigOn(s *Scheduler, ts *TraceSet, cfg core.Config) (*SuiteResult, error) {
	b := NewBatch(s, ts)
	p := b.RunConfig(cfg)
	b.Flush()
	return p.Wait()
}

// RunScalarAsync submits the Figure 6 scalar baseline per program.
func RunScalarAsync(s *Scheduler, ts *TraceSet, historyBits, numTables int) *SuitePromise {
	return suitePromise(s, ts, func(name string) (metrics.Result, error) {
		sr := core.RunScalar(ts.traces[name].Clone(), historyBits, numTables)
		return metrics.Result{
			Program:         name,
			CondBranches:    sr.CondBranches,
			CondMispredicts: sr.CondMispredicts,
		}, nil
	})
}
