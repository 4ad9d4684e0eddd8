package harness

import (
	"context"

	"mbbp/internal/core"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
)

// Batch collects configuration submissions for one experiment and runs
// them through config-parallel lanes (core.LaneSet): configurations
// sharing a cache geometry are grouped, and each (group × program) pair
// becomes ONE pool job that walks the program's trace once while
// driving every lane in lockstep — instead of one walk per
// configuration. Results fold through the SuitePromise machinery. A
// batch is the only way the harness simulates a configuration:
// RunConfigAsync is a one-configuration batch, and a lone engine's Run
// is a one-lane LaneSet walk.
//
//	b := NewBatch(s, ts)
//	p1 := b.RunConfig(cfgA) // promises fill after Flush
//	p2 := b.RunConfig(cfgB)
//	b.Flush()               // submits one lane job per (group, program)
//	r1, err := p1.Wait()
//
// Flush must be called before waiting on any returned promise; drivers
// call it right before returning their wait function. Jobs remain
// leaves: grouping happens at submission time in the driver goroutine,
// and a lane job never submits or waits.
type Batch struct {
	s   *Scheduler
	ts  *TraceSet
	ctx context.Context

	groups []*laneGroup // registration order
	byGeom map[icache.Geometry]*laneGroup
}

// laneGroup is the pending work for one cache geometry: the lane
// configurations in submission order and, per lane, one future per
// program, filled by the group's lane jobs at Flush.
type laneGroup struct {
	cfgs []core.Config
	rows [][]*Future[metrics.Result] // rows[lane][program index]
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
	return &Batch{s: s, ts: ts, ctx: ctx, byGeom: make(map[icache.Geometry]*laneGroup)}
}

// RunConfig registers one configuration and returns its pending suite
// result. The promise's futures fill once Flush has submitted the lane
// jobs and they have run; an invalid configuration resolves immediately
// to its validation error.
func (b *Batch) RunConfig(cfg core.Config) *SuitePromise {
	if err := cfg.Validate(); err != nil {
		return &SuitePromise{err: err}
	}
	g := b.byGeom[cfg.Geometry]
	if g == nil {
		g = &laneGroup{}
		b.groups = append(b.groups, g)
		b.byGeom[cfg.Geometry] = g
	}
	g.cfgs = append(g.cfgs, cfg)
	row := make([]*Future[metrics.Result], len(b.ts.order))
	for i := range row {
		row[i] = &Future[metrics.Result]{done: make(chan struct{})}
	}
	g.rows = append(g.rows, row)
	return &SuitePromise{ts: b.ts, futs: row}
}

// Flush submits one lane job per (geometry group, program) and clears
// the batch for reuse. On a serial scheduler the jobs run inline here,
// in group-registration then suite order.
func (b *Batch) Flush() {
	for _, g := range b.groups {
		for pi, name := range b.ts.order {
			b.s.submit(func() { b.runGroup(g, pi, name) })
		}
	}
	b.groups = nil
	b.byGeom = make(map[icache.Geometry]*laneGroup)
}

// runGroup is one lane job: a fresh LaneSet over one program's trace,
// filling the group's future for every lane at that program. An error,
// or a panic recovered as a *PanicError, fails every lane's future.
func (b *Batch) runGroup(g *laneGroup, pi int, name string) {
	rs, err := b.runLanes(g, name)
	for l, row := range g.rows {
		f := row[pi]
		if err != nil {
			f.err = err
		} else {
			f.val = rs[l]
		}
		close(f.done)
	}
}

// runLanes runs the group's lanes over one program's trace.
func (b *Batch) runLanes(g *laneGroup, name string) (rs []metrics.Result, err error) {
	defer recoverJob(&err)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	ls, err := core.NewLanes(g.cfgs)
	if err != nil {
		return nil, err
	}
	tr := b.ts.traces[name].WithContext(b.ctx)
	if b.ts.warmup {
		ls.Run(tr) // untimed training pass, all lanes at once
	}
	for li, e := range ls.Lanes() {
		b.ts.attachObserver(e, name, g.cfgs[li])
	}
	rs = ls.Run(tr)
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}
