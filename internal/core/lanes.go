package core

import (
	"fmt"

	"mbbp/internal/bitable"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// Config-parallel lanes: one trace walk drives N predictor instances in
// lockstep. The block stream — and everything derived from the block
// alone — depends only on the cache geometry, not on predictor
// configuration, so a LaneSet hoists that work out of the per-config
// loop: decode and block formation run once per block (newBlockReader),
// and the per-block derived values (lines touched, decoded BIT codes,
// packed conditional outcomes) are computed once in a sharedBlock and
// consumed by every lane. All predictor state (PHT, BIT, select tables,
// target arrays, RAS, GHR, carried fetch state) stays per-lane, so each
// lane's result is byte-identical to running its engine alone.

// sharedBlock carries the per-block values that are a pure function of
// (block, geometry) — identical for every lane of a set — so they are
// computed once per block instead of once per (block, lane). A single
// engine Run is a one-lane set, so it uses one too.
type sharedBlock struct {
	geom icache.Geometry
	blk  *block

	// lines is the geometry's LinesTouched for the block.
	lines []uint32
	// condN/condBits are the block's packed conditional outcomes (GHR
	// shift material).
	condN    int
	condBits uint32

	// codes hold the decoded BIT codes for the block, by the NearBlock
	// flag (the only configuration bit that changes the encoding at a
	// fixed geometry). Computed lazily: a homogeneous lane set touches
	// one variant.
	codes   [2][]bitable.Code
	codesOK [2]bool
}

func newSharedBlock(geom icache.Geometry) *sharedBlock {
	return &sharedBlock{
		geom: geom,
		codes: [2][]bitable.Code{
			make([]bitable.Code, geom.BlockWidth),
			make([]bitable.Code, geom.BlockWidth),
		},
	}
}

// set points the shared state at the next block and computes the
// unconditionally needed values (lines, conditional outcomes).
func (sh *sharedBlock) set(blk *block) {
	sh.blk = blk
	sh.lines = sh.geom.LinesTouched(sh.lines[:0], blk.start, blk.n())
	sh.condN, sh.condBits = blk.condOutcomes()
	sh.codesOK[0], sh.codesOK[1] = false, false
}

// trueCodes returns the correct BIT codes for the block under the given
// near-block encoding, computing them on first request. The returned
// slice is valid until the next set call.
func (sh *sharedBlock) trueCodes(near bool) []bitable.Code {
	i := 0
	if near {
		i = 1
	}
	codes := sh.codes[i][:sh.blk.n()]
	if !sh.codesOK[i] {
		for j, rec := range sh.blk.insts {
			codes[j] = bitable.Encode(rec.Class, sh.blk.start+uint32(j), rec.Target,
				sh.geom.LineSize, near)
		}
		sh.codesOK[i] = true
	}
	return codes
}

// LaneSet drives several engines — one per configuration — over a
// single decoded block stream. Every configuration must share the same
// cache geometry (block formation is a function of the geometry); the
// rest of the configuration is free to vary per lane. Results are
// byte-identical to running each engine independently over the same
// source.
type LaneSet struct {
	lanes []*Engine
	geom  icache.Geometry
}

// NewLanes builds one engine per configuration and checks that the set
// can share a block stream. At least one configuration is required, and
// all must validate and agree on Geometry.
func NewLanes(cfgs []Config) (*LaneSet, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: NewLanes: no configurations")
	}
	ls := &LaneSet{lanes: make([]*Engine, len(cfgs)), geom: cfgs[0].Geometry}
	for i, cfg := range cfgs {
		if cfg.Geometry != ls.geom {
			return nil, fmt.Errorf("core: NewLanes: lane %d geometry %+v differs from lane 0 %+v (block formation is shared; group configurations by geometry)",
				i, cfg.Geometry, ls.geom)
		}
		e, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: NewLanes: lane %d: %w", i, err)
		}
		ls.lanes[i] = e
	}
	return ls, nil
}

// Lanes returns the per-lane engines, in configuration order. Useful
// for installing observers (Engine.SetObserver) before Run.
func (ls *LaneSet) Lanes() []*Engine { return ls.lanes }

// Run consumes the trace (resetting it first) exactly once, feeding
// every block to each lane in lane order, and returns the accumulated
// per-lane results in configuration order. Each result is identical to
// what that lane's engine would have returned from its own Run over the
// same source.
func (ls *LaneSet) Run(src trace.Source) []metrics.Result {
	name := ""
	named := false
	if b, ok := src.(trace.Named); ok {
		name, named = b.TraceName(), true
	}
	for _, e := range ls.lanes {
		e.runObs = e.obs
		if g, ok := e.obs.(ObserverGate); ok && !g.ObserverEnabled() {
			e.runObs = nil
		}
		if named {
			e.res.Program = name
		}
	}
	src.Reset()
	rd := newBlockReader(src, ls.geom)
	sh := newSharedBlock(ls.geom)
	for {
		blk, ok := rd.next()
		if !ok {
			break
		}
		sh.set(blk)
		for _, e := range ls.lanes {
			e.consume(blk, sh)
		}
	}
	out := make([]metrics.Result, len(ls.lanes))
	for i, e := range ls.lanes {
		out[i] = e.res
		e.res = metrics.Result{Program: e.res.Program}
	}
	return out
}
