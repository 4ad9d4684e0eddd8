package core

import (
	"math/bits"

	"mbbp/internal/bitable"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
	"mbbp/internal/ras"
	"mbbp/internal/seltab"
	"mbbp/internal/target"
	"mbbp/internal/trace"
)

// Engine is one configured instance of the paper's fetch prediction
// hardware. Create it with New and drive it with Run; predictor state
// (PHT counters, target arrays, select tables) persists across Run
// calls, so call Reset between unrelated workloads.
type Engine struct {
	// The fields consume reads or writes on every block come first, so
	// that a lane's per-block state spans as few cache lines as
	// possible: with dozens of lanes, each engine's header is evicted
	// while the other lanes consume their tiles, and every line of it
	// is one more miss when the lane's turn comes again. The GHR and
	// return stack are held by value for the same reason: reading them
	// costs no pointer hop to a line of their own.

	geom   icache.Geometry
	blocks int // blocks fetched per cycle (1, 2, or the §5 extension's 3-4)
	role   int // role of the next block to consume: 0 = first of a group

	ghr    pht.GHR
	pred   Predictor
	dir    directionReader // pred as scan's direction source, converted once, not per block
	bit    *bitable.Table
	tgt    target.Array
	ras    ras.Stack
	st     *seltab.Table
	icache *icache.Model // nil = perfect (the paper's assumption)

	// Carried fetch state. addrRing holds the starting addresses of
	// recently consumed blocks, most recent first: the dual (and
	// N-block) target arrays are indexed by predecessor blocks, and
	// target array t is indexed t blocks back (§3.1).
	addrRing [seltab.MaxBlocks]uint32
	ringLen  int
	prevGHR  uint32 // GHR value when the most recent block was scanned
	// cycGHR/cycAddr snapshot the select-table index of the block
	// group currently in flight: the slot that predicted this group's
	// non-first blocks.
	cycGHR   uint32
	cycAddr  uint32
	cycValid bool

	// blkPenalty and blkKind are the current block's largest Table 3
	// charge and its kind (ties to the lower kind): Event.Penalty and
	// Event.Kind, kept by charge as the block is consumed.
	blkPenalty int
	blkKind    metrics.Kind

	// runObs is the observer active for the current Run: e.obs unless a
	// gated observer reported itself disabled at Run entry, in which
	// case it is nil and the per-block tap cost collapses to one
	// nil-check (the obs-overhead guarantee).
	runObs Observer

	// Per-engine scratch buffers, sized once in New and reused for
	// every block so the consume hot path performs no heap allocation.
	linesA   []uint32
	staleBuf []bitable.Code

	res metrics.Result

	cfg Config
	obs Observer
}

// New builds an engine for the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, geom: cfg.Geometry, blocks: cfg.Blocks()}
	e.ghr = *pht.NewGHR(cfg.HistoryBits)
	pred, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	e.pred, e.dir = pred, pred
	if cfg.Selection == metrics.SingleSelection {
		e.bit = bitable.New(cfg.BITEntries, cfg.Geometry.LineSize, cfg.NearBlock)
	}
	switch cfg.TargetArray {
	case BTB:
		e.tgt = target.NewBTB(cfg.TargetEntries, cfg.Geometry.BlockWidth, cfg.BTBAssoc)
	default:
		e.tgt = target.NewNLS(cfg.TargetEntries, cfg.Geometry.BlockWidth, e.blocks)
	}
	e.ras = *ras.New(cfg.RASSize)
	if e.blocks > 1 {
		e.st = seltab.New(cfg.HistoryBits, cfg.NumSTs,
			cfg.Geometry.BlockWidth, cfg.Geometry.LineSize, cfg.NearBlock,
			e.blocks, cfg.Selection == metrics.DoubleSelection)
	}
	if cfg.ICacheLines > 0 {
		assoc := cfg.ICacheAssoc
		if assoc == 0 {
			assoc = 1
		}
		m, err := icache.NewModel(cfg.ICacheLines, assoc)
		if err != nil {
			return nil, err
		}
		e.icache = m
	}
	// A group reads at most two lines per block.
	e.linesA = make([]uint32, 0, 2*e.blocks)
	e.staleBuf = make([]bitable.Code, cfg.Geometry.BlockWidth)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Reset discards all predictor and fetch state, as if freshly built,
// and removes the observer. Every structure is cleared in place and the
// scratch buffers are kept, so Reset allocates nothing. The engine is
// zeroed except for its configuration and storage before the structures
// reset, so no carried field — fetch state, result, observer — survives.
func (e *Engine) Reset() {
	*e = Engine{
		geom: e.geom, blocks: e.blocks, cfg: e.cfg,
		ghr: e.ghr, pred: e.pred, dir: e.dir, bit: e.bit, tgt: e.tgt, ras: e.ras, st: e.st, icache: e.icache,
		linesA: e.linesA[:0], staleBuf: e.staleBuf,
	}
	e.ghr.Reset()
	e.pred.Reset()
	if e.bit != nil {
		e.bit.Reset()
	}
	e.tgt.Reset()
	e.ras.Reset()
	if e.st != nil {
		e.st.Reset()
	}
	if e.icache != nil {
		e.icache.Reset()
	}
	clear(e.staleBuf)
}

// Run consumes the trace (resetting it first) and returns the
// accumulated result, its Program field taken from the trace's Name.
// Run is a one-lane LaneSet walk: the lane batch is the only block
// loop.
func (e *Engine) Run(src *trace.Buffer) metrics.Result {
	ls := LaneSet{lanes: []*Engine{e}, geom: e.geom, tile: newTile(e.geom, 1)}
	return ls.Run(src)[0]
}

// consume processes a tile of actual blocks, in order. For each block
// it accounts the fetch request, predicts the block's successor from
// its BIT/PHT state, verifies any select-table involvement, classifies
// mispredictions, charges Table 3 penalties and trains every structure.
// A tile slot holds the block and its config-independent derived values
// (lines touched, BIT codes), computed once per block and shared by
// every lane consuming the same stream. The loop over the tile is here,
// not in the caller, so a one-slot tile costs one call per block.
func (e *Engine) consume(tile []sharedBlock) {
	for i := range tile {
		sh := &tile[i]
		blk := &sh.blk
		dual := e.blocks > 1
		role := e.role
		if !dual {
			role = 0
		}
		e.blkPenalty, e.blkKind = 0, 0

		e.res.Blocks++
		e.res.Instructions += uint64(blk.n)
		if role == 0 {
			e.res.FetchCycles++
			// Element by element: a slice append is a memmove call,
			// and a block has at most two lines.
			e.linesA = e.linesA[:0]
			for _, l := range sh.lines {
				e.linesA = append(e.linesA, l)
			}
			if e.icache != nil {
				e.accessICache(e.linesA)
			}
			// Snapshot the select-table index of this group: its
			// non-first blocks were predicted from the slot indexed when
			// the group's predecessor was current.
			if e.ringLen > 0 {
				e.cycGHR, e.cycAddr = e.prevGHR, e.addrRing[0]
				e.cycValid = true
			} else {
				e.cycValid = false
			}
		} else {
			// Later block of the group: bank-conflict check against the
			// lines fetched so far this cycle (§3.3, §4.5).
			if e.icache != nil {
				e.accessICache(sh.lines)
			}
			if e.geom.Conflict(e.linesA, sh.lines) {
				e.charge(metrics.BankConflict,
					metrics.Penalty(metrics.BankConflict, role, e.cfg.Selection))
			}
			for _, l := range sh.lines {
				e.linesA = append(e.linesA, l)
			}
		}

		ghrPre := e.ghr.Value()
		e.pred.Lookup(ghrPre, blk.start)
		trueCodes := sh.trueCodes(e.cfg.NearBlock, e.geom.LineSize)

		var sc scanResult
		e.scan(blk, trueCodes, e.dir, &sc)

		// Finite-BIT penalty: predict with the (possibly stale or missing)
		// table contents; if that changes the prediction, the fetch logic
		// discovers it one cycle later when the line is decoded (§4.2).
		if e.bit != nil && !e.bit.Perfect() {
			staleCodes, anyStale := e.staleCodes(blk)
			if anyStale {
				var ssc scanResult
				e.scan(blk, staleCodes, e.dir, &ssc)
				if ssc.exit != sc.exit || ssc.sel.Source != sc.sel.Source {
					e.charge(metrics.BITMispredict,
						metrics.Penalty(metrics.BITMispredict, role, e.cfg.Selection))
				}
			}
		}

		// Tentative role of the successor block if this block's prediction
		// holds: roles cycle through the group; any redirecting penalty
		// restarts the pipeline with a first-role fetch.
		succRole := 0
		if dual && role+1 < e.blocks {
			succRole = role + 1
		}

		predNext, predOK := e.evaluate(blk, &sc, succRole)
		kind, redirect, extra := e.classify(blk, &sc, predNext, predOK, role)

		if redirect {
			e.charge(kind, metrics.Penalty(kind, role, e.cfg.Selection)+extra)
		}

		// Select-table verification for the successor fetch (§3.1-3.2).
		// Charged only when no redirecting penalty already squashes the
		// pipeline; updates happen regardless.
		condFlip := kind == metrics.CondMispredict && redirect && e.condExitWeak(blk, &sc)
		if dual {
			e.verifyST(blk, trueCodes, &sc, ghrPre, succRole, redirect, condFlip)
		}

		// Direction statistics and PHT training for every conditional
		// branch in the block (each predicted by its position counter in
		// the entry looked up for this block). The branch counts are the
		// popcounts of the block's masks; training visits only the set bits
		// of cond, in ascending position order. A taken conditional ends
		// its block, so only the exit can be one.
		w := e.geom.BlockWidth
		e.res.Branches += uint64(bits.OnesCount64(blk.branch))
		e.res.CondBranches += uint64(bits.OnesCount64(blk.cond))
		for m := blk.cond; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			pos, taken := blk.posOf(j, w), j == blk.exit
			if e.pred.Taken(pos) != taken {
				e.res.CondMispredicts++
			}
			e.pred.Update(pos, taken)
		}

		// Target array training: a redirecting exit whose source is the
		// target array stores its target under every target number — array
		// t indexed by the block t positions back (§3.1's inherent
		// duplication, extended to N blocks).
		if x := blk.exit; x >= 0 {
			class := blk.rec(x).Class()
			exitAddr := blk.start + uint32(x)
			if usesTargetArray(class, trueCodes[x]) {
				pos := blk.posOf(x, w)
				e.tgt.Update(blk.start, pos, 0, blk.next, class.IsCall())
				for t := 1; t < e.blocks && t <= e.ringLen; t++ {
					e.tgt.Update(e.addrRing[t-1], pos, t, blk.next, class.IsCall())
				}
			}
			switch {
			case class.IsCall():
				e.ras.Push(exitAddr + 1)
			case class == isa.ClassReturn:
				e.ras.Pop()
			}
		}

		// BIT fill: the fetched line(s) now carry decoded type information.
		if e.bit != nil && !e.bit.Perfect() {
			e.fillBIT(blk, trueCodes)
		}

		// GHR: shifted once per block with the block's conditional
		// outcomes (§2). The predictor observes the same outcomes, so a
		// strategy whose private history outlives the shared GHR stays in
		// sync with it.
		e.ghr.ShiftPacked(blk.condN, blk.condBits)
		e.pred.Shift(blk.condN, blk.condBits)

		// Carry state for the next block.
		copy(e.addrRing[1:], e.addrRing[:len(e.addrRing)-1])
		e.addrRing[0] = blk.start
		if e.ringLen < len(e.addrRing) {
			e.ringLen++
		}
		e.prevGHR = ghrPre
		if redirect {
			e.role = 0
		} else {
			e.role = succRole
		}

		if e.runObs != nil {
			ev := Event{
				Cycle: e.res.FetchCycles, Block: e.res.Blocks, Role: role,
				Start: blk.start, Len: blk.n,
				GHR:           ghrPre,
				Selector:      sc.sel,
				PredictedNext: predNext,
				ActualNext:    blk.next,
				Penalty:       e.blkPenalty,
				Kind:          e.blkKind,
				Redirect:      redirect,
			}
			if x := blk.exit; x >= 0 {
				ev.ExitClass = blk.rec(x).Class()
			}
			e.runObs.Observe(ev)
		}
	}
}

// charge records a Table 3 penalty against the current block and keeps
// the block's largest charge for its Event, ties going to the lower
// kind. consume charges each kind at most once per block, so this is
// the largest per-kind increase of PenaltyCycles over the block.
func (e *Engine) charge(k metrics.Kind, cycles int) {
	e.res.AddPenalty(k, cycles)
	if cycles > e.blkPenalty || (cycles > 0 && cycles == e.blkPenalty && k < e.blkKind) {
		e.blkPenalty, e.blkKind = cycles, k
	}
}

// accessICache probes the instruction-cache content model for the
// lines a block reads, charging the configured miss penalty. The model
// is optional; consume calls this only when there is one, so an engine
// without it pays no call per block.
func (e *Engine) accessICache(lines []uint32) {
	for _, l := range lines {
		if !e.icache.Access(l) {
			e.res.ICacheMisses++
			e.res.ICacheMissCycles += uint64(e.cfg.ICacheMissPenalty)
		}
	}
}

// classify compares the scan's successor prediction against the block's
// actual contents and successor, returning the Table 3 misprediction
// kind, whether it redirects the fetch stream, and any extra penalty
// cycles (the re-fetch adder).
func (e *Engine) classify(blk *block, sc *scanResult, predNext uint32, predOK bool, role int) (metrics.Kind, bool, int) {
	actualExit := blk.exit
	switch {
	case sc.exit < 0 && actualExit < 0:
		return 0, false, 0 // both fall through; addresses agree by construction
	case sc.exit < 0:
		// Predicted to run past an actually taken branch: mispredicted
		// not-taken. The wrongly fetched tail is discarded; no re-fetch
		// adder.
		return metrics.CondMispredict, true, 0
	case actualExit < 0 || sc.exit < actualExit:
		// Predicted taken at a branch that was not taken (or typed a
		// transfer where none redirected). Remaining instructions of
		// the block must be re-fetched (Table 3 footnote, first block
		// only; the second block's +1 is already in its base penalty).
		extra := 0
		if role == 0 && sc.exit < blk.n-1 {
			extra = metrics.RefetchAdder
		}
		return metrics.CondMispredict, true, extra
	default:
		// Exit position agrees; direction is right, check the target.
		if predOK && predNext == blk.next {
			return 0, false, 0
		}
		switch blk.rec(sc.exit).Class() {
		case isa.ClassReturn:
			return metrics.ReturnMispredict, true, 0
		case isa.ClassIndirect, isa.ClassIndirectCall:
			return metrics.MisfetchIndirect, true, 0
		default:
			// Direct targets (conditional, jump, call) are recomputed
			// from the instruction as soon as it is decoded.
			return metrics.MisfetchImmediate, true, 0
		}
	}
}

// condExitWeak reports whether the classified conditional misprediction
// happened on a branch without a "second chance" (weak counter state),
// in which case the BBR's replacement selector is written to the select
// table (§3.3). Reads the predictor's state for the latched block.
func (e *Engine) condExitWeak(blk *block, sc *scanResult) bool {
	idx := sc.exit
	if idx < 0 {
		idx = blk.exit
	}
	if idx < 0 || blk.cond&(1<<idx) == 0 {
		return false
	}
	return !e.pred.SecondChance(blk.posOf(idx, e.geom.BlockWidth))
}

// verifyST checks the memoized selector that launched (or, with double
// selection, will launch) this block's successor fetch against the
// freshly computed scan, charging misselect and GHR penalties and
// updating the table (§3.1-3.3). The comparison runs on packed
// selectors: the scan's selector is encoded once, masked against the
// stored field, and written back as is when it differs. trueCodes are
// the block's BIT codes, which the bad-branch-recovery rescan reads.
func (e *Engine) verifyST(blk *block, trueCodes []bitable.Code, sc *scanResult, ghrPre uint32, succRole int, squashed, condFlip bool) {
	var ref seltab.Ref
	role := succRole
	switch {
	case succRole >= 1:
		// The successor is a non-first block of the current group; it
		// was selected from the slot indexed when the group's
		// predecessor block was current.
		if !e.cycValid {
			return
		}
		ref = e.st.At(e.cycGHR, e.cycAddr)
	case e.cfg.Selection == metrics.DoubleSelection:
		// With double selection the first block of the next cycle also
		// comes from the (dual) select table, indexed by this block.
		ref = e.st.At(ghrPre, blk.start)
	default:
		return // single selection computes first-role fetches directly
	}

	raw := e.st.Encode(sc.sel)
	slot, valid := ref.Load(role)
	mismatchMux := !valid || !e.st.SameMux(slot, raw)
	mismatchGHR := !valid || !e.st.SameGHR(slot, raw)
	if !squashed {
		if mismatchMux {
			e.charge(metrics.Misselect,
				metrics.Penalty(metrics.Misselect, succRole, e.cfg.Selection))
		} else if mismatchGHR {
			e.charge(metrics.GHRMispredict,
				metrics.Penalty(metrics.GHRMispredict, succRole, e.cfg.Selection))
		}
	}
	if mismatchMux || mismatchGHR {
		ref.SetRaw(role, raw)
	}
	if condFlip {
		// Bad branch recovery: the mispredicted branch will predict
		// differently next time, so install the pre-computed
		// replacement selector now: the scan of the block under its
		// actual outcomes.
		var bbr scanResult
		e.scan(blk, trueCodes, e.outcomes(blk), &bbr)
		ref.SetRaw(role, e.st.Encode(bbr.sel))
	}
}

// usesTargetArray reports whether the exit instruction's target is
// stored in the target array (Table 1): returns use the RAS, near-block
// conditionals are computed, everything else redirecting uses the array.
// code is the exit's true BIT code under the engine's encoding.
func usesTargetArray(class isa.Class, code bitable.Code) bool {
	switch class {
	case isa.ClassReturn:
		return false
	case isa.ClassCond:
		return !code.IsNear()
	default:
		return true
	}
}

// staleCodes materializes the BIT table's current contents for the
// block's positions into the engine's stale scratch buffer (valid until
// the next call) and reports whether any covering entry is stale or
// missing.
func (e *Engine) staleCodes(blk *block) ([]bitable.Code, bool) {
	out := e.staleBuf[:blk.n]
	anyStale := false
	for j := 0; j < len(out); {
		line, off, n := e.lineRun(blk, j)
		if !e.bit.Lookup(line, off, out[j:j+n]) {
			anyStale = true
		}
		j += n
	}
	return out, anyStale
}

// fillBIT installs the block's decoded type codes into a finite BIT
// table; consume calls it only when there is one.
func (e *Engine) fillBIT(blk *block, trueCodes []bitable.Code) {
	for j := 0; j < blk.n; {
		line, off, n := e.lineRun(blk, j)
		e.bit.Fill(line, off, trueCodes[j:j+n])
		j += n
	}
}

// lineRun splits a block by cache line: the run of instructions from
// block index j to the end of j's line (or of the block) has n
// instructions and starts at offset off of the line at address line.
// A block touches at most two lines, so it is at most two runs.
func (e *Engine) lineRun(blk *block, j int) (line uint32, off, n int) {
	addr := blk.start + uint32(j)
	off = int(addr & uint32(e.geom.LineSize-1))
	return e.geom.LineStart(addr), off, min(blk.n-j, e.geom.LineSize-off)
}
