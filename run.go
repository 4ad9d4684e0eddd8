package mbbp

import (
	"context"
	"fmt"

	"mbbp/internal/core"
)

// Run is the canonical simulation entry point: it validates cfg, builds
// a fresh engine, and drives it over src until the trace ends or ctx is
// cancelled. Every simulation in the module walks its trace through one
// block loop, core.LaneSet.Run: Engine.Run is a one-lane set, RunMany
// and the harness batches (hence mbpexp and the mbbpd service) run one
// set per geometry. So a given (config, trace) pair produces the same
// Result everywhere.
//
// Run walks a private cursor over src's records (src.WithContext(ctx)),
// so concurrent calls may share one buffer and the caller's own cursor
// is left where it was. The block reader polls that cursor for
// cancellation between fetch blocks, every 4096 instructions or so,
// so a cancelled Run returns promptly with ctx's error and no Result;
// an uncancelled Run is byte-for-byte identical to Engine.Run(src).
func Run(ctx context.Context, cfg Config, src *TraceBuffer) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("mbbp: Run: nil trace")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e, err := core.New(cfg)
	if err != nil {
		return Result{}, err
	}
	res := e.Run(src.WithContext(ctx))
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// RunMany simulates every configuration over one trace, walking the
// trace once per distinct cache geometry instead of once per
// configuration: configurations sharing a geometry run as lockstep
// lanes of a single pass (core.LaneSet, planned by core.GroupLanes),
// which is how a 20-config comparison costs roughly one simulation, and
// equal configurations share one lane. Results come back in cfgs order,
// and each is byte-identical to Run(ctx, cfgs[i], src) — lane grouping
// is a performance detail, never a semantic one.
//
// Any invalid configuration fails the whole call (reporting its index),
// before any simulation runs. Like Run, RunMany walks its own cursor
// over src's records, and the block reader polls it for cancellation
// between fetch blocks.
func RunMany(ctx context.Context, cfgs []Config, src *TraceBuffer) ([]Result, error) {
	if src == nil {
		return nil, fmt.Errorf("mbbp: RunMany: nil trace")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("mbbp: RunMany: no configurations")
	}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("mbbp: RunMany: config %d: %w", i, err)
		}
	}
	sets, slot := core.GroupLanes(cfgs)
	rs := make([][]Result, len(sets))
	cur := src.WithContext(ctx)
	for si, set := range sets {
		ls, err := core.NewLanes(set)
		if err != nil {
			return nil, err
		}
		rs[si] = ls.Run(cur)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := make([]Result, len(cfgs))
	for i, s := range slot {
		out[i] = rs[s.Set][s.Lane]
	}
	return out, nil
}
