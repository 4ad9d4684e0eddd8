package mbbp

import (
	"context"
	"fmt"

	"mbbp/internal/core"
	"mbbp/internal/trace"
)

// Run is the canonical simulation entry point: it validates cfg, builds
// a fresh engine, and drives it over src until the trace ends or ctx is
// cancelled. Every simulation in the module walks its trace through one
// block loop, core.LaneSet.Run: Engine.Run is a one-lane set, RunMany
// and the harness batches (hence mbpexp and the mbbpd service) run one
// set per geometry. So a given (config, trace) pair produces the same
// Result everywhere.
//
// Cancellation is checked between fetch blocks (every few thousand
// records), so a cancelled Run returns promptly with ctx's error and no
// Result; an uncancelled Run is byte-for-byte identical to
// Engine.Run(src).
func Run(ctx context.Context, cfg Config, src TraceSource) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("mbbp: Run: nil trace source")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e, err := core.New(cfg)
	if err != nil {
		return Result{}, err
	}
	res := e.Run(trace.WithContext(ctx, src))
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunMany simulates every configuration over one trace, walking the
// trace once per distinct cache geometry instead of once per
// configuration: configurations sharing a geometry run as lockstep
// lanes of a single pass (core.LaneSet), which is how a 20-config
// comparison costs roughly one simulation. Results come back in cfgs
// order, and each is byte-identical to Run(ctx, cfgs[i], src) — lane
// grouping is a performance detail, never a semantic one.
//
// Any invalid configuration fails the whole call (reporting its index),
// before any simulation runs. Cancellation is checked between fetch
// blocks, like Run.
func RunMany(ctx context.Context, cfgs []Config, src TraceSource) ([]Result, error) {
	if src == nil {
		return nil, fmt.Errorf("mbbp: RunMany: nil trace source")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("mbbp: RunMany: no configurations")
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("mbbp: RunMany: config %d: %w", i, err)
		}
	}
	// Group by geometry, preserving first-appearance order and each
	// config's position.
	type group struct {
		cfgs []Config
		idx  []int
	}
	var order []Geometry
	groups := make(map[Geometry]*group)
	for i, cfg := range cfgs {
		g := groups[cfg.Geometry]
		if g == nil {
			g = &group{}
			groups[cfg.Geometry] = g
			order = append(order, cfg.Geometry)
		}
		g.cfgs = append(g.cfgs, cfg)
		g.idx = append(g.idx, i)
	}
	out := make([]Result, len(cfgs))
	wrapped := trace.WithContext(ctx, src)
	for _, geom := range order {
		g := groups[geom]
		ls, err := core.NewLanes(g.cfgs)
		if err != nil {
			return nil, err
		}
		rs := ls.Run(wrapped)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for l, i := range g.idx {
			out[i] = rs[l]
		}
	}
	return out, nil
}
