package core

import (
	"fmt"
	"math/bits"

	"mbbp/internal/bitable"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/trace"
)

// Config-parallel lanes: one trace walk drives N predictor instances.
// The block stream — and everything derived from the block alone —
// depends only on the cache geometry, not on predictor configuration,
// so a LaneSet hoists that work out of the per-config loop: block
// formation runs once per block (blockReader, which also derives the
// branch masks and packed conditional outcomes), and the other
// per-block derived values (lines touched, decoded BIT codes) are
// computed once in the block's sharedBlock and consumed by every lane.
// All predictor state (PHT, BIT, select tables, target arrays, RAS,
// GHR, carried fetch state) stays per-lane, so each lane's result is
// byte-identical to running its engine alone.
//
// The walk is lane-major over tiles: the reader forms up to tileSize
// blocks into the set's tile, then each lane consumes the whole tile,
// in block order, before the next lane starts. A lane's state depends
// only on its own blocks, in order, so the interleaving of lanes is
// unobservable in results; what it buys is that a lane's engine header,
// tables and predictor code stay warm for a tile instead of going cold
// between every two blocks.

// tileSize is how many blocks a multi-lane set forms before its lanes
// run. On the 32-lane mixedLanes grid over six workload traces
// (BenchmarkLaneSetSuite, 2-vCPU host, five alternations) the median
// ns per instruction per lane read 15.5 block at a time, and 15.1,
// 13.9, 13.4 and 13.7 with tiles of 16, 64, 256 and 1024 blocks. A
// slot is about 200 B plus 2W bytes of BIT codes, so a 256-slot tile is
// about 57 KB at W = 8. A one-lane set keeps a one-slot tile: it has
// no other lane to evict its state, and on one lane tiles of 8 and 32
// slots read no faster.
const tileSize = 256

// sharedBlock is one slot of a tile: a block as the reader formed it,
// plus the per-block values that are a pure function of (block,
// geometry) — identical for every lane of a set — so they are computed
// once per block instead of once per (block, lane).
type sharedBlock struct {
	blk block

	// lines is the geometry's LinesTouched for the block: one or two
	// lines, a window of the tile's line array.
	lines []uint32

	// codes hold the decoded BIT codes for the block, by the NearBlock
	// flag (the only configuration bit that changes the encoding at a
	// fixed geometry). Computed lazily: a homogeneous lane set touches
	// one variant. encoded is the branch mask codes were last encoded
	// for, the only positions that can be nonzero, so the next encoding
	// clears just those instead of calling memclr on the whole block.
	codes   [2][]bitable.Code
	encoded [2]uint64
	codesOK [2]bool
}

// newTile allocates a tile of n slots for the geometry. Every slot's
// lines and codes are windows of two arrays shared by the tile, so a
// tile is three allocations whatever its size.
func newTile(geom icache.Geometry, n int) []sharedBlock {
	tile := make([]sharedBlock, n)
	w := geom.BlockWidth
	lines := make([]uint32, 2*n)
	codes := make([]bitable.Code, 2*w*n)
	for i := range tile {
		sh := &tile[i]
		sh.lines = lines[2*i : 2*i : 2*i+2]
		c := codes[2*w*i : 2*w*(i+1)]
		sh.codes = [2][]bitable.Code{c[:w:w], c[w:]}
	}
	return tile
}

// resetTile restores a tile to its state from newTile, in place.
func resetTile(tile []sharedBlock) {
	for i := range tile {
		sh := &tile[i]
		sh.blk = block{}
		clear(sh.lines[:cap(sh.lines)])
		sh.lines = sh.lines[:0]
		clear(sh.codes[0])
		clear(sh.codes[1])
		sh.encoded, sh.codesOK = [2]uint64{}, [2]bool{}
	}
}

// trueCodes returns the correct BIT codes for the block under the given
// near-block encoding and line size, computing them on first request.
// The returned slice is valid until the slot is filled again. Plain
// instructions encode as bitable.CodePlain (zero), so only the control
// transfers the block's branch mask names are encoded.
func (sh *sharedBlock) trueCodes(near bool, lineSize int) []bitable.Code {
	i := 0
	if near {
		i = 1
	}
	blk := &sh.blk
	codes := sh.codes[i]
	if !sh.codesOK[i] {
		for m := sh.encoded[i]; m != 0; m &= m - 1 {
			codes[bits.TrailingZeros64(m)] = bitable.CodePlain
		}
		for m := blk.branch; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			rec := blk.rec(j)
			codes[j] = bitable.Encode(rec.Class(), blk.start+uint32(j), rec.Target(),
				lineSize, near)
		}
		sh.encoded[i], sh.codesOK[i] = blk.branch, true
	}
	return codes[:blk.n]
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
	tile  []sharedBlock
}

// NewLanes builds one engine per configuration and checks that the set
// can share a block stream. At least one configuration is required, and
// all must validate and agree on Geometry. A set of several lanes gets a
// tile of tileSize blocks, a one-lane set a tile of one.
func NewLanes(cfgs []Config) (*LaneSet, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: NewLanes: no configurations")
	}
	slots := tileSize
	if len(cfgs) == 1 {
		slots = 1
	}
	ls := &LaneSet{lanes: make([]*Engine, len(cfgs)), geom: cfgs[0].Geometry,
		tile: newTile(cfgs[0].Geometry, slots)}
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

// Reset resets every lane (Engine.Reset) and clears the tile: the set
// is as if freshly built by NewLanes, observers removed, and nothing is
// allocated.
func (ls *LaneSet) Reset() {
	for _, e := range ls.lanes {
		e.Reset()
	}
	resetTile(ls.tile)
}

// Lanes returns the per-lane engines, in configuration order. Useful
// for installing observers (Engine.SetObserver) before Run.
func (ls *LaneSet) Lanes() []*Engine { return ls.lanes }

// Run consumes the trace (resetting it first) exactly once, a tile of
// blocks at a time: each lane, in lane order, consumes the whole tile
// in block order before the next lane starts. It returns the accumulated
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
	for {
		tile := rd.fill(ls.tile)
		if len(tile) == 0 {
			break
		}
		for _, e := range ls.lanes {
			e.consume(tile)
		}
	}
	out := make([]metrics.Result, len(ls.lanes))
	for i, e := range ls.lanes {
		out[i] = e.res
		e.res = metrics.Result{Program: e.res.Program}
	}
	return out
}
