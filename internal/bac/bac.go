// Package bac implements the baseline the paper positions itself
// against: Yeh, Marr & Patt's multiple branch prediction via a Branch
// Address Cache (ICS 1993, reference [11]). A BAC entry, indexed by the
// current fetch address, stores the addresses of *all possible* basic
// blocks the next prediction levels can reach — two addresses for the
// first branch, four for the second, growing exponentially with the
// number of branches predicted per cycle (the scaling problem §1-§2 of
// Wallace & Bagherzadeh set out to fix).
//
// The model here predicts up to two basic blocks per cycle: a tagged
// set-associative BAC whose entry holds the first block's terminating
// branch (fall-through and taken addresses) plus second-level
// information for both outcomes; a gshare-indexed scalar PHT supplies
// directions; a return address stack covers returns. Basic blocks end
// at every control transfer — taken or not — which is what
// distinguishes Yeh's fetch unit from the paper's block-based one, and
// why its fetch bandwidth is lower for the same width.
package bac

import (
	"fmt"

	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
	"mbbp/internal/ras"
	"mbbp/internal/trace"
)

// Config sizes the baseline.
type Config struct {
	// HistoryBits is the GHR length and PHT index width.
	HistoryBits int
	// Entries is the number of BAC entries (a power of two), Assoc its
	// associativity.
	Entries int
	Assoc   int
	// BlockWidth caps the instructions fetched per basic block.
	BlockWidth int
	// LineSize is the instruction cache line size; like the paper's
	// normal cache, a basic block cannot cross a line boundary.
	LineSize int
	// RASSize is the return address stack depth.
	RASSize int
}

// DefaultConfig matches the main engine's defaults where the structures
// correspond (10-bit history, W=8, 32-entry RAS) with a 256-entry
// 4-way BAC.
func DefaultConfig() Config {
	return Config{HistoryBits: 10, Entries: 256, Assoc: 4, BlockWidth: 8, LineSize: 8, RASSize: 32}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HistoryBits < 1 || c.HistoryBits > 26 {
		return fmt.Errorf("bac: history bits %d out of range", c.HistoryBits)
	}
	if c.Entries < 1 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("bac: entries %d must be a power of two", c.Entries)
	}
	if c.Assoc < 1 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("bac: associativity %d must divide entries %d", c.Assoc, c.Entries)
	}
	if c.BlockWidth < 1 {
		return fmt.Errorf("bac: block width %d must be positive", c.BlockWidth)
	}
	if c.LineSize < c.BlockWidth || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("bac: line size %d must be a power of two >= block width", c.LineSize)
	}
	if c.RASSize < 1 {
		return fmt.Errorf("bac: RAS size %d must be positive", c.RASSize)
	}
	return nil
}

// CostBits estimates BAC storage for a given address width and number
// of branches predicted per cycle: each entry stores 2^(b+1)-2
// addresses plus per-level type/position metadata and a tag — the
// exponential growth the paper contrasts with its linear select tables.
func CostBits(entries, addrBits, branches int) int {
	addrs := 1<<(branches+1) - 2
	perLevelMeta := 5 // exit position + class bits
	meta := 0
	levels := 1
	for b := 0; b < branches; b++ {
		meta += levels * perLevelMeta
		levels *= 2
	}
	tag := 20
	return entries * (addrs*addrBits + meta + tag)
}

// secondInfo is one second-level record: the basic block reached under
// one outcome of the first branch.
type secondInfo struct {
	valid       bool
	start       uint32
	exitPos     uint8 // instructions in the block (including the branch); 0xFF = no branch within the cap
	class       isa.Class
	fallThrough uint32
	target      uint32
}

type entry struct {
	valid       bool
	tag         uint64
	used        uint64
	exitPos     uint8
	class       isa.Class
	fallThrough uint32
	target      uint32
	second      [2]secondInfo
}

const noBranch = 0xFF

// Engine is the baseline fetch engine.
type Engine struct {
	cfg   Config
	ghr   *pht.GHR
	tab   *pht.Scalar
	ras   *ras.Stack
	sets  int
	ents  []entry
	clock uint64
	res   metrics.Result
}

// New builds the baseline engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:  cfg,
		ghr:  pht.NewGHR(cfg.HistoryBits),
		tab:  pht.NewScalar(cfg.HistoryBits, 8),
		ras:  ras.New(cfg.RASSize),
		sets: cfg.Entries / cfg.Assoc,
		ents: make([]entry, cfg.Entries),
	}, nil
}

func (e *Engine) find(addr uint32) *entry {
	set := int(addr) % e.sets
	base := set * e.cfg.Assoc
	for i := 0; i < e.cfg.Assoc; i++ {
		c := &e.ents[base+i]
		if c.valid && c.tag == uint64(addr) {
			e.clock++
			c.used = e.clock
			return c
		}
	}
	return nil
}

func (e *Engine) alloc(addr uint32) *entry {
	set := int(addr) % e.sets
	base := set * e.cfg.Assoc
	victim := &e.ents[base]
	for i := 0; i < e.cfg.Assoc; i++ {
		c := &e.ents[base+i]
		if c.valid && c.tag == uint64(addr) {
			victim = c
			break
		}
		if !c.valid {
			victim = c
			break
		}
		if c.used < victim.used {
			victim = c
		}
	}
	if !victim.valid || victim.tag != uint64(addr) {
		*victim = entry{valid: true, tag: uint64(addr)}
	}
	e.clock++
	victim.used = e.clock
	return victim
}

// basicBlock is one Yeh-style basic block: instructions up to and
// including the first control transfer (taken or not), capped at the
// block width.
type basicBlock struct {
	start uint32
	n     int
	next  uint32
	// last is the terminating control transfer's record when the block
	// ends at one (branch), read in place from the trace.
	last   trace.Packed
	branch bool
}

// exit returns the terminating control transfer, if any.
func (b *basicBlock) exit() (trace.Packed, bool) { return b.last, b.branch }

// bbReader segments a trace into basic blocks by walking the cursor's
// unread run-length records in place (trace.Buffer.Rest), stepping
// over a run of plain instructions at once, and moving the cursor past
// each block (Skip).
type bbReader struct {
	src      *trace.Buffer
	width    int
	lineSize int
}

func (r *bbReader) next() (basicBlock, bool) {
	recs, off := r.src.Rest()
	if len(recs) == 0 {
		return basicBlock{}, false
	}
	rec := recs[0]
	start := rec.PC() + uint32(off)
	// Like the paper's normal cache, a block cannot cross a line.
	limit := min(r.lineSize-int(start)%r.lineSize, r.width)
	b := basicBlock{start: start}
	i := 0
	for {
		if off == 0 {
			b.n, off = b.n+1, 1
			if rec.Class().IsControlTransfer() {
				// A basic block ends at any branch, taken or not.
				b.last, b.branch = rec, true
				if rec.Taken() {
					b.next = rec.Target()
				} else {
					b.next = rec.PC() + 1
				}
				break
			}
		}
		// The plain instructions folded after the record, up to the
		// line or the width.
		take := min(rec.Run()+1-off, limit-b.n)
		b.n, off = b.n+take, off+take
		if b.n == limit {
			b.next = start + uint32(b.n)
			break
		}
		if i++; i == len(recs) {
			// The end of the stream.
			b.next, off = start+uint32(b.n), 0
			break
		}
		rec, off = recs[i], 0
		if pc := rec.PC(); pc != start+uint32(b.n) {
			b.next = pc
			break
		}
	}
	if i < len(recs) && off > recs[i].Run() {
		i, off = i+1, 0
	}
	r.src.Skip(i, off)
	return b, true
}

// Run consumes the trace and returns the metrics. Fetch groups hold up
// to two basic blocks: the second is fetched in the same cycle only
// when the BAC entry's second-level information for the predicted
// first-branch outcome is present and correct — the structural
// dependence the paper's select table removes.
func (e *Engine) Run(src *trace.Buffer) metrics.Result {
	src.Reset()
	e.res.Program = src.Name
	rd := &bbReader{src: src, width: e.cfg.BlockWidth, lineSize: e.cfg.LineSize}
	role := 0
	var prevEnt *entry // entry of the previously consumed block
	var prevOut int    // outcome its terminating branch actually took
	for {
		blk, ok := rd.next()
		if !ok {
			break
		}
		if role == 0 {
			e.res.FetchCycles++
		}
		e.res.Blocks++
		e.res.Instructions += uint64(blk.n)

		redirect := e.consume(&blk, role)

		// Train the previous block's second level with what actually
		// followed it, regardless of how this block was fetched.
		if prevEnt != nil {
			si := &prevEnt.second[prevOut]
			si.valid = true
			si.start = blk.start
			e.fillInfoFromBlock(si, &blk)
		}

		// Chain state: consume allocated/refreshed this block's entry.
		curEnt := e.find(blk.start)
		rec, hasExit := blk.exit()
		out := 0
		if hasExit && rec.Taken() {
			out = 1
		}
		prevEnt, prevOut = curEnt, out

		// A second block joins this cycle only when this (first) block
		// predicted cleanly and its entry already holds matching
		// second-level information for the predicted path — the
		// serialized dependence Yeh's BAC resolves by storing all
		// possible second-level addresses.
		if role == 0 && !redirect && curEnt != nil {
			if si := &curEnt.second[out]; si.valid && si.start == blk.next {
				role = 1
				continue
			}
		}
		role = 0
	}
	out := e.res
	e.res = metrics.Result{Program: e.res.Program}
	return out
}

func (e *Engine) fillInfoFromBlock(si *secondInfo, blk *basicBlock) {
	rec, hasExit := blk.exit()
	if !hasExit {
		si.exitPos = noBranch
		si.class = isa.ClassPlain
		si.fallThrough = blk.start + uint32(blk.n)
		si.target = si.fallThrough
		return
	}
	si.exitPos = uint8(blk.n - 1)
	si.class = rec.Class()
	si.fallThrough = rec.PC() + 1
	si.target = rec.Target()
}

// consume classifies the prediction of one basic block's successor and
// trains every structure; it returns whether a redirecting penalty was
// charged.
func (e *Engine) consume(blk *basicBlock, role int) bool {
	rec, hasExit := blk.exit()
	ent := e.find(blk.start)

	redirect := false
	kind := metrics.CondMispredict
	switch {
	case ent == nil || e.stale(ent, blk):
		// BAC miss (or stale block shape): the fetch unit discovers
		// the branch at decode and redirects in one cycle if the
		// sequential assumption was wrong.
		if hasExit && rec.Taken() {
			redirect = true
			kind = metrics.MisfetchImmediate
		}
	case !hasExit:
		// Sequential block, entry agrees: always right.
	case rec.Class() == isa.ClassCond:
		dir := e.tab.Predict(e.ghr.Value(), rec.PC())
		if dir != rec.Taken() {
			redirect = true
			kind = metrics.CondMispredict
		} else if dir && ent.target != rec.Target() {
			redirect = true
			kind = metrics.MisfetchImmediate
		}
	case rec.Class() == isa.ClassReturn:
		if e.ras.Top() != blk.next {
			redirect = true
			kind = metrics.ReturnMispredict
		}
	case rec.Class().IsIndirect():
		if ent.target != blk.next {
			redirect = true
			kind = metrics.MisfetchIndirect
		}
	default: // direct jump or call
		if ent.target != blk.next {
			redirect = true
			kind = metrics.MisfetchImmediate
		}
	}
	if redirect {
		e.res.AddPenalty(kind, metrics.Penalty(kind, role, metrics.SingleSelection))
	}

	// Training.
	if hasExit {
		e.res.Branches++
		if rec.Class() == isa.ClassCond {
			e.res.CondBranches++
			if e.tab.Predict(e.ghr.Value(), rec.PC()) != rec.Taken() {
				e.res.CondMispredicts++
			}
			e.tab.Update(e.ghr.Value(), rec.PC(), rec.Taken())
			e.ghr.Shift(rec.Taken())
		}
		switch {
		case rec.Class().IsCall():
			e.ras.Push(rec.PC() + 1)
		case rec.Class() == isa.ClassReturn:
			e.ras.Pop()
		}
	}
	ne := e.alloc(blk.start)
	if hasExit {
		ne.exitPos = uint8(blk.n - 1)
		ne.class = rec.Class()
		ne.fallThrough = rec.PC() + 1
		if rec.Taken() {
			ne.target = rec.Target()
		}
	} else {
		ne.exitPos = noBranch
		ne.class = isa.ClassPlain
		ne.fallThrough = blk.start + uint32(blk.n)
	}
	return redirect
}

// stale reports whether the entry's block shape disagrees with reality
// (different exit position or class), which the fetch unit discovers at
// decode.
func (e *Engine) stale(ent *entry, blk *basicBlock) bool {
	rec, hasExit := blk.exit()
	if !hasExit {
		return ent.exitPos != noBranch && int(ent.exitPos) < blk.n
	}
	return ent.exitPos != uint8(blk.n-1) || ent.class != rec.Class()
}
