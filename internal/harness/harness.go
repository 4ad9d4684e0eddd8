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

// DefaultOptions returns the defaults used by the CLI.
func DefaultOptions() Options {
	return Options{Instructions: 1_000_000}
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
	// WithObserver). observerCfg is the config-aware variant
	// (WithConfigObserver) and wins when both are set.
	observer    func(program string) core.Observer
	observerCfg func(program string, cfg core.Config) core.Observer
}

// WithObserver returns a view of the trace set that installs f's
// observer on every engine run launched through it — the hook the
// observability layer uses to tap engines the harness constructs
// internally (the mbbpd aggregate tap, the events attribution view). f
// is called once per engine run with the program name and may return a
// shared concurrency-safe observer (obs.Counters) or a fresh one per
// call; a nil return leaves that run untapped. Warmup passes are not
// observed — the observer sees exactly the measured run. Observers
// cannot change results, so every determinism contract holds with or
// without one.
func (ts *TraceSet) WithObserver(f func(program string) core.Observer) *TraceSet {
	out := *ts
	out.observer = f
	return &out
}

// WithConfigObserver is WithObserver with the run's validated
// configuration passed alongside the program name. Lane batches attach
// observers per lane, and every lane of a group shares the program —
// the configuration is the only handle that tells the lanes apart, so
// any driver that sweeps a config dimension under one trace walk (the
// H2P history-sensitivity sweep) keys its accumulators on it. The same
// determinism contract as WithObserver holds: observers see exactly
// the measured run and cannot change results.
func (ts *TraceSet) WithConfigObserver(f func(program string, cfg core.Config) core.Observer) *TraceSet {
	out := *ts
	out.observerCfg = f
	return &out
}

// attachObserver installs the set's observer on e for name's measured
// run under cfg, if one is configured.
func (ts *TraceSet) attachObserver(e *core.Engine, name string, cfg core.Config) {
	if ts.observerCfg != nil {
		if o := ts.observerCfg(name, cfg); o != nil {
			e.SetObserver(o)
		}
		return
	}
	if ts.observer == nil {
		return
	}
	if o := ts.observer(name); o != nil {
		e.SetObserver(o)
	}
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
// matter — and assembles them in suite (declaration) order.
func LoadTracesOn(s *Scheduler, o Options) (*TraceSet, error) {
	ts := newTraceSet(o)
	type captured struct {
		tr    *trace.Buffer
		suite workload.Suite
	}
	var futs []*Future[captured]
	for _, name := range o.programs() {
		name := name
		futs = append(futs, Submit(s, func() (captured, error) {
			b, err := workload.Get(name)
			if err != nil {
				return captured{}, err
			}
			tr, err := b.Trace(o.instructions())
			if err != nil {
				return captured{}, fmt.Errorf("harness: tracing %s: %w", name, err)
			}
			return captured{tr, b.Suite}, nil
		}))
	}
	for i, name := range o.programs() {
		c, err := futs[i].Wait()
		if err != nil {
			return nil, err
		}
		ts.order = append(ts.order, name)
		ts.traces[name] = c.tr
		ts.suites[name] = c.suite
	}
	return ts, nil
}

// LoadTracesCached assembles a TraceSet like LoadTracesOn, but shares
// capture through the cache: each program's trace is captured at most
// once per (program, instructions) key across every concurrent caller,
// which is how the simulation service keeps N simultaneous sweep
// requests from capturing the workload suite N times.
//
// Captures run as jobs on s; the waiting happens here, in the caller's
// goroutine, so the pool's leaf-job discipline holds (a pool job never
// blocks on another). Cancelling ctx abandons the waits — an in-flight
// capture finishes for whoever else wants it and stays cached.
func LoadTracesCached(ctx context.Context, s *Scheduler, o Options, c *trace.Cache) (*TraceSet, error) {
	ts := newTraceSet(o)
	n := o.instructions()
	for _, name := range o.programs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		name := name
		buf, err := c.Get(ctx, trace.CacheKey{Program: name, N: n}, func() (*trace.Buffer, error) {
			fut := Submit(s, func() (*trace.Buffer, error) {
				tr, err := b.Trace(n)
				if err != nil {
					return nil, fmt.Errorf("harness: tracing %s: %w", name, err)
				}
				return tr, nil
			})
			return fut.Wait()
		})
		if err != nil {
			return nil, err
		}
		ts.order = append(ts.order, name)
		ts.traces[name] = buf
		ts.suites[name] = b.Suite
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

// Of returns the aggregate for a suite.
func (s *SuiteResult) Of(suite workload.Suite) metrics.Result {
	if suite == workload.FP {
		return s.FP
	}
	return s.Int
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
	if p.err != nil {
		return nil, p.err
	}
	out := &SuiteResult{Per: make(map[string]metrics.Result)}
	out.Int.Program = "CINT95"
	out.FP.Program = "CFP95"
	for i, name := range p.ts.order {
		r, err := p.futs[i].Wait()
		if err != nil {
			return nil, err
		}
		out.Per[name] = r
		if p.ts.suites[name] == workload.FP {
			out.FP.Add(r)
		} else {
			out.Int.Add(r)
		}
	}
	return out, nil
}

// WaitCtx is Wait that stops folding once ctx is done. Jobs submitted
// through SubmitCtx with the same ctx wind down on their own; jobs
// already running stop at their next trace-source cancellation check.
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

// RunConfigAsync submits one configuration over every program of the
// set — a one-configuration Batch, flushed — and returns the pending
// suite result. Each program's job gets a fresh engine (the paper
// simulates each benchmark independently) and its own read cursor over
// the shared trace records.
func RunConfigAsync(s *Scheduler, ts *TraceSet, cfg core.Config) *SuitePromise {
	return RunConfigCtxAsync(context.Background(), s, ts, cfg)
}

// RunConfigCtxAsync is RunConfigAsync with cancellation: jobs that have
// not started when ctx is cancelled never run, and running jobs stop at
// the next trace-source cancellation check. An uncancelled run is
// byte-identical to RunConfigAsync — the context guard only forwards
// records.
func RunConfigCtxAsync(ctx context.Context, s *Scheduler, ts *TraceSet, cfg core.Config) *SuitePromise {
	b := NewBatchCtx(ctx, s, ts)
	p := b.RunConfig(cfg)
	b.Flush()
	return p
}

// RunConfig runs one configuration over every trace in the set on the
// default scheduler and folds the results in suite order.
func RunConfig(ts *TraceSet, cfg core.Config) (*SuiteResult, error) {
	return RunConfigOn(DefaultScheduler(), ts, cfg)
}

// RunConfigOn is RunConfig on an explicit scheduler.
func RunConfigOn(s *Scheduler, ts *TraceSet, cfg core.Config) (*SuiteResult, error) {
	return RunConfigAsync(s, ts, cfg).Wait()
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
