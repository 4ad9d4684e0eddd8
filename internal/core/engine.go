package core

import (
	"fmt"

	"mbbp/internal/bitable"
	"mbbp/internal/cpu"
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
	cfg    Config
	geom   icache.Geometry
	blocks int // blocks fetched per cycle (1, 2, or the §5 extension's 3-4)

	ghr    *pht.GHR
	pred   Predictor
	bit    *bitable.Table
	tgt    target.Array
	ras    *ras.Stack
	st     *seltab.Table
	icache *icache.Model // nil = perfect (the paper's assumption)

	res metrics.Result

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
	role     int // role of the next block to consume: 0 = first of a group

	// Per-engine scratch buffers, sized once in New and reused for
	// every block so the consume hot path performs no heap allocation.
	linesA      []uint32
	staleBuf    []bitable.Code
	knownBuf    []bool
	lineCodeBuf []bitable.Code

	// blkPenalty and blkKind are the current block's largest Table 3
	// charge and its kind (ties to the lower kind): Event.Penalty and
	// Event.Kind, kept by charge as the block is consumed.
	blkPenalty int
	blkKind    metrics.Kind

	obs Observer
	// runObs is the observer active for the current Run: e.obs unless a
	// gated observer reported itself disabled at Run entry, in which
	// case it is nil and the per-block tap cost collapses to one
	// nil-check (the obs-overhead guarantee).
	runObs Observer
}

// New builds an engine for the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, geom: cfg.Geometry, blocks: cfg.Blocks()}
	e.ghr = pht.NewGHR(cfg.HistoryBits)
	pred, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	e.pred = pred
	if cfg.Selection == metrics.SingleSelection {
		e.bit = bitable.New(cfg.BITEntries, cfg.Geometry.LineSize, cfg.NearBlock)
	}
	switch cfg.TargetArray {
	case BTB:
		e.tgt = target.NewBTB(cfg.TargetEntries, cfg.Geometry.BlockWidth, cfg.BTBAssoc)
	default:
		e.tgt = target.NewNLS(cfg.TargetEntries, cfg.Geometry.BlockWidth, e.blocks)
	}
	e.ras = ras.New(cfg.RASSize)
	if e.blocks > 1 {
		e.st = seltab.New(cfg.HistoryBits, cfg.NumSTs,
			cfg.Geometry.BlockWidth, cfg.Geometry.LineSize, cfg.NearBlock)
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
	e.staleBuf = make([]bitable.Code, cfg.Geometry.BlockWidth)
	e.knownBuf = make([]bool, cfg.Geometry.LineSize)
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Reset discards all predictor and fetch state, as if freshly built.
func (e *Engine) Reset() {
	fresh, err := New(e.cfg)
	if err != nil {
		panic(fmt.Sprintf("core: Reset of invalid config: %v", err))
	}
	*e = *fresh
}

// Run consumes the trace (resetting it first) and returns the
// accumulated result. The result's Program field is taken from the
// source when it is a named buffer. Run is a one-lane LaneSet walk:
// the lane batch is the only block loop.
func (e *Engine) Run(src trace.Source) metrics.Result {
	ls := LaneSet{lanes: []*Engine{e}, geom: e.geom}
	return ls.Run(src)[0]
}

// consume processes one actual block: accounts the fetch request,
// predicts the block's successor from its BIT/PHT state, verifies any
// select-table involvement, classifies mispredictions, charges Table 3
// penalties and trains every structure. sh carries the block's
// config-independent derived values (lines touched, BIT codes, packed
// conditional outcomes), computed once per block and shared by every
// lane consuming the same stream.
func (e *Engine) consume(blk *block, sh *sharedBlock) {
	dual := e.blocks > 1
	role := e.role
	if !dual {
		role = 0
	}
	e.blkPenalty, e.blkKind = 0, 0

	e.res.Blocks++
	e.res.Instructions += uint64(blk.n())
	if role == 0 {
		e.res.FetchCycles++
		e.linesA = append(e.linesA[:0], sh.lines...)
		e.accessICache(e.linesA)
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
		e.accessICache(sh.lines)
		if e.geom.Conflict(e.linesA, sh.lines) {
			e.charge(metrics.BankConflict,
				metrics.Penalty(metrics.BankConflict, role, e.cfg.Selection))
		}
		e.linesA = append(e.linesA, sh.lines...)
	}

	ghrPre := e.ghr.Value()
	e.pred.Lookup(ghrPre, blk.start)
	trueCodes := sh.trueCodes(e.cfg.NearBlock)

	// Finite-BIT penalty: predict with the (possibly stale or missing)
	// table contents; if that changes the prediction, the fetch logic
	// discovers it one cycle later when the line is decoded (§4.2).
	if e.bit != nil && !e.bit.Perfect() {
		staleCodes, anyStale := e.staleCodes(blk)
		if anyStale {
			ssc := e.scan(blk, staleCodes, e.pred)
			tsc := e.scan(blk, trueCodes, e.pred)
			if ssc.exit != tsc.exit || ssc.sel.Source != tsc.sel.Source {
				e.charge(metrics.BITMispredict,
					metrics.Penalty(metrics.BITMispredict, role, e.cfg.Selection))
			}
		}
	}

	sc := e.scan(blk, trueCodes, e.pred)

	// Tentative role of the successor block if this block's prediction
	// holds: roles cycle through the group; any redirecting penalty
	// restarts the pipeline with a first-role fetch.
	succRole := 0
	if dual && role+1 < e.blocks {
		succRole = role + 1
	}

	predNext, predOK := e.evaluate(blk, sc, succRole)
	kind, redirect, extra := e.classify(blk, sc, predNext, predOK, role)

	if redirect {
		e.charge(kind, metrics.Penalty(kind, role, e.cfg.Selection)+extra)
	}

	// Select-table verification for the successor fetch (§3.1-3.2).
	// Charged only when no redirecting penalty already squashes the
	// pipeline; updates happen regardless.
	condFlip := kind == metrics.CondMispredict && redirect && e.condExitWeak(blk, sc)
	if dual {
		e.verifyST(blk, sc, ghrPre, succRole, redirect, condFlip)
	}

	// Direction statistics and PHT training for every conditional
	// branch in the block (each predicted by its position counter in
	// the entry looked up for this block).
	w := e.geom.BlockWidth
	for j, rec := range blk.insts {
		if rec.Class != isa.ClassPlain {
			e.res.Branches++
		}
		if rec.Class != isa.ClassCond {
			continue
		}
		e.res.CondBranches++
		pos := int(blk.start+uint32(j)) % w
		if e.pred.Taken(pos) != rec.Taken {
			e.res.CondMispredicts++
		}
		e.pred.Update(pos, rec.Taken)
	}

	// Target array training: a redirecting exit whose source is the
	// target array stores its target under every target number — array
	// t indexed by the block t positions back (§3.1's inherent
	// duplication, extended to N blocks).
	if x := blk.exitIdx(); x >= 0 {
		rec := blk.insts[x]
		exitAddr := blk.start + uint32(x)
		if e.usesTargetArray(rec, exitAddr) {
			pos := int(exitAddr) % w
			e.tgt.Update(blk.start, pos, 0, blk.next, rec.Class.IsCall())
			for t := 1; t < e.blocks && t <= e.ringLen; t++ {
				e.tgt.Update(e.addrRing[t-1], pos, t, blk.next, rec.Class.IsCall())
			}
		}
		switch {
		case rec.Class.IsCall():
			e.ras.Push(exitAddr + 1)
		case rec.Class == isa.ClassReturn:
			e.ras.Pop()
		}
	}

	// BIT fill: the fetched line(s) now carry decoded type information.
	e.fillBIT(blk, trueCodes)

	// GHR: shifted once per block with the block's conditional
	// outcomes (§2). The predictor observes the same outcomes, so a
	// strategy whose private history outlives the shared GHR stays in
	// sync with it.
	e.ghr.ShiftPacked(sh.condN, sh.condBits)
	e.pred.Shift(sh.condN, sh.condBits)

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
			Start: blk.start, Len: blk.n(),
			GHR:           ghrPre,
			Selector:      sc.sel,
			PredictedNext: predNext,
			ActualNext:    blk.next,
			Penalty:       e.blkPenalty,
			Kind:          e.blkKind,
			Redirect:      redirect,
		}
		if x := blk.exitIdx(); x >= 0 {
			ev.ExitClass = blk.insts[x].Class
		}
		e.runObs.Observe(ev)
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

// accessICache probes the optional instruction-cache content model for
// the lines a block reads, charging the configured miss penalty.
func (e *Engine) accessICache(lines []uint32) {
	if e.icache == nil {
		return
	}
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
func (e *Engine) classify(blk *block, sc scanResult, predNext uint32, predOK bool, role int) (metrics.Kind, bool, int) {
	actualExit := blk.exitIdx()
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
		if role == 0 && sc.exit < blk.n()-1 {
			extra = metrics.RefetchAdder
		}
		return metrics.CondMispredict, true, extra
	default:
		// Exit position agrees; direction is right, check the target.
		rec := blk.insts[sc.exit]
		if predOK && predNext == blk.next {
			return 0, false, 0
		}
		switch rec.Class {
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
func (e *Engine) condExitWeak(blk *block, sc scanResult) bool {
	idx := sc.exit
	if idx < 0 {
		idx = blk.exitIdx()
	}
	if idx < 0 || blk.insts[idx].Class != isa.ClassCond {
		return false
	}
	pos := int(blk.start+uint32(idx)) % e.geom.BlockWidth
	return !e.pred.SecondChance(pos)
}

// verifyST checks the memoized selector that launched (or, with double
// selection, will launch) this block's successor fetch against the
// freshly computed scan, charging misselect and GHR penalties and
// updating the table (§3.1-3.3).
func (e *Engine) verifyST(blk *block, sc scanResult, ghrPre uint32, succRole int, squashed, condFlip bool) {
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

	valid := ref.Valid()
	slot := ref.Get(role)
	mismatchMux := !valid || !slot.SameMux(sc.sel)
	mismatchGHR := !valid || !slot.SameGHR(sc.sel)
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
		ref.Set(role, sc.sel)
	}
	if condFlip {
		// Bad branch recovery: the mispredicted branch will predict
		// differently next time, so install the pre-computed
		// replacement selector now.
		ref.Set(role, e.correctedSelector(blk))
	}
}

// usesTargetArray reports whether the exit instruction's target is
// stored in the target array (Table 1): returns use the RAS, near-block
// conditionals are computed, everything else redirecting uses the array.
func (e *Engine) usesTargetArray(rec cpu.Retired, exitAddr uint32) bool {
	switch rec.Class {
	case isa.ClassReturn:
		return false
	case isa.ClassCond:
		code := bitable.Encode(rec.Class, exitAddr, rec.Target, e.geom.LineSize, e.cfg.NearBlock)
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
	anyStale := false
	lineSize := uint32(e.geom.LineSize)
	firstLine := e.geom.LineOf(blk.start)
	lastLine := e.geom.LineOf(blk.start + uint32(blk.n()) - 1)
	var codesA, codesB []bitable.Code
	for l := firstLine; l <= lastLine; l++ {
		codes, fresh := e.bit.Lookup(l * lineSize)
		if !fresh {
			anyStale = true
		}
		if l == firstLine {
			codesA = codes
		} else {
			codesB = codes
		}
	}
	out := e.staleBuf[:blk.n()]
	for j := range out {
		addr := blk.start + uint32(j)
		codes := codesA
		if e.geom.LineOf(addr) != firstLine {
			codes = codesB
		}
		if codes == nil {
			out[j] = bitable.CodePlain
		} else {
			out[j] = codes[addr%lineSize]
		}
	}
	return out, anyStale
}

// fillBIT installs the block's decoded type codes into the BIT table.
func (e *Engine) fillBIT(blk *block, trueCodes []bitable.Code) {
	if e.bit == nil || e.bit.Perfect() {
		return
	}
	lineSize := uint32(e.geom.LineSize)
	firstLine := e.geom.LineOf(blk.start)
	lastLine := e.geom.LineOf(blk.start + uint32(blk.n()) - 1)
	if e.lineCodeBuf == nil {
		e.lineCodeBuf = make([]bitable.Code, e.geom.LineSize)
	}
	lineCodes := e.lineCodeBuf
	for l := firstLine; l <= lastLine; l++ {
		known := e.knownBuf
		for i := range known {
			known[i] = false
		}
		for i := range lineCodes {
			lineCodes[i] = bitable.CodePlain
		}
		for j := range blk.insts {
			addr := blk.start + uint32(j)
			if e.geom.LineOf(addr) == l {
				off := addr % lineSize
				lineCodes[off] = trueCodes[j]
				known[off] = true
			}
		}
		e.bit.Fill(l*lineSize, lineCodes, known)
	}
}
