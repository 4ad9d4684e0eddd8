package harness

import (
	"context"
	"sync"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
)

// Batch collects configuration submissions for one experiment and runs
// them through config-parallel lanes (core.LaneSet): at Flush,
// core.GroupLanes plans one lane set per cache geometry, with equal
// configurations sharing one lane, and each (lane set × program) pair
// becomes ONE pool job that walks the program's trace once while
// driving every lane in lockstep — instead of one walk per
// configuration. Results fold through the SuitePromise machinery. A
// batch is the only way the harness simulates a configuration:
// RunConfigOn is a one-configuration batch, and a lone engine's Run is
// a one-lane LaneSet walk.
//
//	b := NewBatch(s, ts)
//	p1 := b.RunConfig(cfgA) // promises fill after Flush
//	p2 := b.RunConfig(cfgB)
//	b.Flush()               // submits one lane job per (lane set, program)
//	r1, err := p1.Wait()
//
// Flush must be called before waiting on any returned promise; drivers
// call it right before returning their wait function. Jobs remain
// leaves: grouping happens at submission time in the driver goroutine,
// and a lane job never submits or waits.
//
// A lane set's jobs share its engines through a free list (laneSets):
// each job takes a set, resetting it in place, and puts it back, so a
// batch builds each set at most once per job running at a time — at
// most the scheduler's worker count, one on a serial scheduler — not
// once per program.
type Batch struct {
	s   *Scheduler
	ts  *TraceSet
	ctx context.Context

	// cfgs are the registered configurations and rows their futures,
	// one per program, in registration order.
	cfgs []core.Config
	rows [][]*Future[metrics.Result]
}

// laneFill is one registration a lane set's job resolves: the lane
// whose result it takes and its futures row.
type laneFill struct {
	lane int
	row  []*Future[metrics.Result]
}

// NewBatch returns an empty batch submitting to s over ts's traces.
func NewBatch(s *Scheduler, ts *TraceSet) *Batch {
	return NewBatchCtx(context.Background(), s, ts)
}

// NewBatchCtx is NewBatch with cancellation: lane jobs not started when
// ctx is cancelled never run, and running jobs walk a cursor bound to
// ctx (trace.Buffer.WithContext), so they stop at their block reader's
// next cancellation poll.
func NewBatchCtx(ctx context.Context, s *Scheduler, ts *TraceSet) *Batch {
	return &Batch{s: s, ts: ts, ctx: ctx}
}

// RunConfig registers one configuration and returns its pending suite
// result. The promise's futures fill once Flush has submitted the lane
// jobs and they have run; an invalid configuration resolves immediately
// to its validation error. Registering a configuration twice runs it
// once: both promises take the same lane's results.
func (b *Batch) RunConfig(cfg core.Config) *SuitePromise {
	if err := cfg.Validate(); err != nil {
		return &SuitePromise{err: err}
	}
	row := make([]*Future[metrics.Result], len(b.ts.order))
	for i := range row {
		row[i] = &Future[metrics.Result]{done: make(chan struct{})}
	}
	b.cfgs = append(b.cfgs, cfg)
	b.rows = append(b.rows, row)
	return &SuitePromise{ts: b.ts, futs: row}
}

// Flush plans the registered configurations' lanes, submits one lane
// job per (lane set, program) and clears the batch for reuse. On a
// serial scheduler the jobs run inline here, in lane-set then suite
// order.
func (b *Batch) Flush() {
	sets, slot := core.GroupLanes(b.cfgs)
	fills := make([][]laneFill, len(sets))
	for r, sl := range slot {
		fills[sl.Set] = append(fills[sl.Set], laneFill{lane: sl.Lane, row: b.rows[r]})
	}
	for si, cfgs := range sets {
		free := &laneSets{cfgs: cfgs}
		for pi, name := range b.ts.order {
			b.s.submit(func() { b.runSet(free, fills[si], pi, name) })
		}
	}
	b.cfgs, b.rows = nil, nil
}

// laneSets is one planned lane set's free list: the built LaneSets of
// its configurations that no job is running. It lives as long as the
// batch's jobs, so reuse never crosses batches.
type laneSets struct {
	cfgs []core.Config
	mu   sync.Mutex
	free []*core.LaneSet
}

// newLaneSet builds a lane set; tests replace it to count builds.
var newLaneSet = core.NewLanes

// take returns a free set, Reset to its freshly built state, or builds
// one when none is free.
func (p *laneSets) take() (*core.LaneSet, error) {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return newLaneSet(p.cfgs)
	}
	ls := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	ls.Reset()
	return ls, nil
}

// put returns a set whose job finished to the free list.
func (p *laneSets) put(ls *core.LaneSet) {
	p.mu.Lock()
	p.free = append(p.free, ls)
	p.mu.Unlock()
}

// runSet is one lane job: a LaneSet from the free list over one
// program's trace, filling every registration's future at that program.
// An error, or a panic recovered as a *PanicError, fails every
// registration's future.
func (b *Batch) runSet(free *laneSets, fills []laneFill, pi int, name string) {
	rs, err := b.runLanes(free, name)
	for _, fl := range fills {
		f := fl.row[pi]
		if err != nil {
			f.err = err
		} else {
			f.val = rs[fl.lane]
		}
		close(f.done)
	}
}

// runLanes runs one lane set over one program's trace. The set goes
// back to the free list only when the walk returns: a set whose job
// panicked may hold half-updated state and is dropped.
func (b *Batch) runLanes(free *laneSets, name string) (rs []metrics.Result, err error) {
	defer recoverJob(&err)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	ls, err := free.take()
	if err != nil {
		return nil, err
	}
	tr := b.ts.traces[name].WithContext(b.ctx)
	if b.ts.warmup {
		ls.Run(tr) // untimed training pass, all lanes at once
	}
	for li, e := range ls.Lanes() {
		b.ts.attachObserver(e, name, free.cfgs[li])
	}
	rs = ls.Run(tr)
	free.put(ls)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}
