package core

import (
	"fmt"
	"math/bits"

	"mbbp/internal/bitable"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// Config-parallel lanes: one trace walk drives N predictor instances in
// lockstep. The block stream — and everything derived from the block
// alone — depends only on the cache geometry, not on predictor
// configuration, so a LaneSet hoists that work out of the per-config
// loop: block formation runs once per block (newBlockReader, which also
// derives the branch masks and packed conditional outcomes), and the
// other per-block derived values (lines touched, decoded BIT codes) are
// computed once in a sharedBlock and consumed by every lane. All
// predictor state (PHT, BIT, select tables, target arrays, RAS, GHR,
// carried fetch state) stays per-lane, so each lane's result is
// byte-identical to running its engine alone.

// sharedBlock carries the per-block values that are a pure function of
// (block, geometry) — identical for every lane of a set — so they are
// computed once per block instead of once per (block, lane). A single
// engine Run is a one-lane set, so it uses one too.
type sharedBlock struct {
	geom icache.Geometry
	blk  *block

	// lines is the geometry's LinesTouched for the block.
	lines []uint32

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
// lines it touches.
func (sh *sharedBlock) set(blk *block) {
	sh.blk = blk
	sh.lines = sh.geom.LinesTouched(sh.lines[:0], blk.start, blk.n)
	sh.codesOK[0], sh.codesOK[1] = false, false
}

// trueCodes returns the correct BIT codes for the block under the given
// near-block encoding, computing them on first request. The returned
// slice is valid until the next set call. Plain instructions encode as
// bitable.CodePlain (zero), so only the control transfers the block's
// branch mask names are encoded.
func (sh *sharedBlock) trueCodes(near bool) []bitable.Code {
	i := 0
	if near {
		i = 1
	}
	blk := sh.blk
	codes := sh.codes[i][:blk.n]
	if !sh.codesOK[i] {
		clear(codes)
		for m := blk.branch; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			rec := blk.rec(j)
			codes[j] = bitable.Encode(rec.Class(), blk.start+uint32(j), rec.Target(),
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
// trace.
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

// LaneSlot names where one configuration's result comes from in a lane
// plan: lane Lane of lane set Set.
type LaneSlot struct{ Set, Lane int }

// GroupLanes plans config-parallel lanes for cfgs: one lane set per
// cache geometry, in first-appearance order, each set's lanes in
// first-appearance order too. Equal configurations collapse to one
// lane, so slot[i] names the (set, lane) whose result is cfgs[i]'s.
// Configurations are compared as Config values; for validated
// configurations that is exactly canonical equality (CanonicalBytes
// serializes the struct itself). Every simulation that runs several
// configurations plans its trace walks here; each set feeds NewLanes.
func GroupLanes(cfgs []Config) (sets [][]Config, slot []LaneSlot) {
	slot = make([]LaneSlot, len(cfgs))
	setOf := make(map[icache.Geometry]int)
	laneOf := make(map[Config]LaneSlot, len(cfgs))
	for i, cfg := range cfgs {
		s, ok := laneOf[cfg]
		if !ok {
			si, ok := setOf[cfg.Geometry]
			if !ok {
				si = len(sets)
				setOf[cfg.Geometry] = si
				sets = append(sets, nil)
			}
			s = LaneSlot{Set: si, Lane: len(sets[si])}
			sets[si] = append(sets[si], cfg)
			laneOf[cfg] = s
		}
		slot[i] = s
	}
	return sets, slot
}

// Reset resets every lane (Engine.Reset): the set is as if freshly
// built by NewLanes, observers removed, and nothing is allocated.
func (ls *LaneSet) Reset() {
	for _, e := range ls.lanes {
		e.Reset()
	}
}

// Lanes returns the per-lane engines, in configuration order. Useful
// for installing observers (Engine.SetObserver) before Run.
func (ls *LaneSet) Lanes() []*Engine { return ls.lanes }

// Run consumes the trace (resetting it first) exactly once, feeding
// every block to each lane in lane order, and returns the accumulated
// per-lane results, labelled with the trace's Name, in configuration
// order. Each result is identical to what that lane's engine would
// have returned from its own Run over the same trace. A trace bound to
// a context (trace.Buffer.WithContext) ends the walk early once its Err
// is non-nil; the caller tells a cut walk from a whole one by Err.
func (ls *LaneSet) Run(src *trace.Buffer) []metrics.Result {
	for _, e := range ls.lanes {
		e.runObs = e.obs
		if g, ok := e.obs.(ObserverGate); ok && !g.ObserverEnabled() {
			e.runObs = nil
		}
		e.res.Program = src.Name
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
