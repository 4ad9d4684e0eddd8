// Package tage implements a tagged-geometric (TAGE-style) multiple-
// branch predictor behind the core.Predictor strategy contract.
//
// Where the paper's blocked PHT predicts every position of a fetch
// block from one gshare-indexed entry, this predictor keeps a 2-bit
// bimodal base table plus N tagged tables whose (partial-tag, 3-bit
// counter, 2-bit useful) entries are indexed by geometrically growing
// slices of a private global history — table i sees roughly
// MinHistory·r^i bits with r = (MaxHistory/MinHistory)^(1/(N-1)).
// The longest-history table with a matching tag provides the
// prediction; on a misprediction a new entry is allocated in a longer
// table chosen by useful-bit victim selection, and useful counters
// are periodically halved (word-level) so stale entries stay
// evictable. History folding uses the circular-shift-register
// construction, so a lookup costs O(tables), not O(history length).
//
// All storage is backed by internal/packed arrays: the bimodal base and
// the useful counters in Counter2Arrays, the 3-bit counters and the
// partial tags in FieldArrays. StateBits() therefore reports the
// honest Table-7-style hardware cost: counters, tags, useful bits and
// the history register itself.
//
// Importing this package registers the strategy under
// core.PredictorTAGE; binaries opt in with a blank import.
package tage

import (
	"math"

	"mbbp/internal/core"
	"mbbp/internal/packed"
)

func init() {
	core.RegisterPredictor(core.PredictorInfo{
		Kind: core.PredictorTAGE,
		Description: "tagged-geometric predictor: bimodal base plus N tagged tables " +
			"over geometric history lengths, partial tags, 3-bit counters and " +
			"useful-bit victim selection with periodic aging",
		Defaults: core.DefaultTAGEParams(),
	}, New)
}

// maxTables matches the core.Config validation ceiling for
// TAGE.Tables; fixed-size per-position scratch arrays are sized by it.
const maxTables = 12

// folded is a circular-shift-register compression of the most recent
// origLen history bits down to compLen bits: pushing a bit shifts the
// register, injects the bit leaving the origLen window at the wrap
// point, and folds the overflow back in. The result equals XOR-folding
// the full origLen-bit history into compLen-bit chunks, maintained in
// O(1) per history bit.
type folded struct {
	comp     uint32
	compLen  uint
	origLen  int
	outPoint uint
}

func newFolded(origLen, compLen int) folded {
	return folded{
		compLen:  uint(compLen),
		origLen:  origLen,
		outPoint: uint(origLen % compLen),
	}
}

// push feeds the newest history bit and the bit that just left the
// origLen-bit window.
func (f *folded) push(newBit, outBit uint32) {
	f.comp = f.comp<<1 | newBit
	f.comp ^= outBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= 1<<f.compLen - 1
}

// table is one tagged component: 3-bit direction counters, partial
// tags and 2-bit useful counters, all 2^bits entries, plus the folded
// views of its history slice.
type table struct {
	ctr     packed.FieldArray // 3-bit saturating counters
	tag     packed.FieldArray
	u       packed.Counter2Array
	histLen int
	mask    uint32
	tagMask uint32
	fIdx    folded
	fTag0   folded
	fTag1   folded
}

// posResult memoizes one position's lookup within the latched block.
type posResult struct {
	pc       uint32
	provider int // providing table, -1 = bimodal base
	alt      int // alternate provider, -1 = base
	pred     bool
	altPred  bool
	strong   bool
	idx      [maxTables]uint32
	tag      [maxTables]uint32
	baseIdx  uint32
}

// Predictor is the TAGE-style implementation of core.Predictor. The
// engine drives it single-threaded; per-position lookups within a
// latched block are computed lazily and memoized, so the finite-BIT
// stale scan re-reading a position costs nothing.
type Predictor struct {
	cfg    core.Config
	params core.TAGEParams
	w      int

	base   packed.Counter2Array
	tables []table

	// Private global history, a ring of single bits sized one past the
	// longest table's window so the exiting bit is still readable when
	// a new bit is pushed.
	hist []uint8
	head int

	tick int    // updates since the last useful-bit aging
	lfsr uint16 // deterministic victim tie-breaker

	blockAddr uint32
	startPos  int            // blockAddr % w, the latched block's first position
	wdiv      packed.Divisor // w, for startPos
	looked    []bool
	res       []posResult
}

// New builds the predictor for a validated configuration. It is the
// factory registered under core.PredictorTAGE.
func New(cfg core.Config) (core.Predictor, error) {
	p := &Predictor{
		cfg:    cfg,
		params: cfg.EffectiveTAGE(),
		w:      cfg.Geometry.BlockWidth,
		wdiv:   packed.NewDivisor(uint32(cfg.Geometry.BlockWidth)),
	}
	t := p.params
	p.base = *packed.NewCounter2Array(1<<t.BaseBits, 0)
	lens := historyLengths(t)
	p.tables = make([]table, t.Tables)
	for i := range p.tables {
		n := 1 << t.TableBits
		p.tables[i] = table{
			ctr:     *packed.NewFieldArray(n, 3),
			tag:     *packed.NewFieldArray(n, t.TagBits),
			u:       *packed.NewCounter2Array(n, 0),
			histLen: lens[i],
			mask:    uint32(n - 1),
			tagMask: 1<<uint(t.TagBits) - 1,
			fIdx:    newFolded(lens[i], t.TableBits),
			fTag0:   newFolded(lens[i], t.TagBits),
			fTag1:   newFolded(lens[i], t.TagBits-1),
		}
	}
	// Ring sized one past the longest actual window (which equals
	// MaxHistory for validated geometries) so bitAge never indexes
	// outside it even if a cramped range inflated the series.
	maxLen := t.MaxHistory
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	p.hist = make([]uint8, maxLen+1)
	p.looked = make([]bool, p.w)
	p.res = make([]posResult, p.w)
	p.Reset()
	return p, nil
}

// historyLengths returns the geometric series of per-table history
// lengths, strictly increasing and — for geometries accepted by
// Config.Validate (MaxHistory-MinHistory+1 >= Tables) — spanning
// exactly MinHistory..MaxHistory. The series is always strictly
// increasing; only a cramped range (rejected by Validate) can push
// lengths past MaxHistory, which build() absorbs by sizing the
// history ring from the actual maximum.
func historyLengths(t core.TAGEParams) []int {
	lens := make([]int, t.Tables)
	if t.Tables == 1 {
		lens[0] = t.MaxHistory
		return lens
	}
	r := math.Pow(float64(t.MaxHistory)/float64(t.MinHistory), 1/float64(t.Tables-1))
	prev := 0
	for i := range lens {
		l := int(math.Round(float64(t.MinHistory) * math.Pow(r, float64(i))))
		// Leave room for the later tables to keep strictly increasing
		// without overshooting MaxHistory; rounding of a shallow
		// geometric ratio can otherwise bunch lengths against the top.
		if cap := t.MaxHistory - (t.Tables - 1 - i); l > cap {
			l = cap
		}
		// Strict monotonicity wins over the cap: higher-index tables
		// must always see longer histories.
		if l <= prev {
			l = prev + 1
		}
		lens[i] = l
		prev = l
	}
	return lens
}

func (p *Predictor) Kind() core.PredictorKind { return core.PredictorTAGE }

// Lookup latches the fetch block; per-position work is deferred until
// a position is actually read.
func (p *Predictor) Lookup(history, blockAddr uint32) {
	p.blockAddr = blockAddr
	p.startPos = int(p.wdiv.Mod(blockAddr))
	for i := range p.looked {
		p.looked[i] = false
	}
}

// pc reconstructs the instruction address from the engine's position
// convention (address mod block width, 0 <= pos < w) and the latched
// block start: the block-relative index is (pos - startPos) mod w.
func (p *Predictor) pc(pos int) uint32 {
	j := pos - p.startPos
	if j < 0 {
		j += p.w
	}
	return p.blockAddr + uint32(j)
}

func (p *Predictor) at(pos int) *posResult {
	if !p.looked[pos] {
		p.predict(&p.res[pos], p.pc(pos))
		p.looked[pos] = true
	}
	return &p.res[pos]
}

// predict runs the full tagged-table match for one branch address,
// filling r in place (a posResult is too large to return by value
// without a block copy per lookup).
func (p *Predictor) predict(r *posResult, pc uint32) {
	r.pc, r.provider, r.alt = pc, -1, -1
	r.baseIdx = pc & uint32(p.base.Len()-1)
	for i := range p.tables {
		tb := &p.tables[i]
		r.idx[i] = (pc ^ pc>>uint(p.params.TableBits) ^ tb.fIdx.comp) & tb.mask
		r.tag[i] = (pc ^ tb.fTag0.comp ^ tb.fTag1.comp<<1) & tb.tagMask
	}
	for i := len(p.tables) - 1; i >= 0; i-- {
		tb := &p.tables[i]
		if tb.tag.Get(int(r.idx[i])) == uint64(r.tag[i]) {
			if r.provider < 0 {
				r.provider = i
			} else {
				r.alt = i
				break
			}
		}
	}
	baseTaken := p.base.Get(int(r.baseIdx)) >= 2
	if r.provider < 0 {
		r.pred, r.altPred = baseTaken, baseTaken
		c := p.base.Get(int(r.baseIdx))
		r.strong = c == 0 || c == 3
		return
	}
	c := p.tables[r.provider].ctr.Get(int(r.idx[r.provider]))
	r.pred = c >= 4
	r.strong = c <= 2 || c >= 5
	if r.alt >= 0 {
		r.altPred = p.tables[r.alt].ctr.Get(int(r.idx[r.alt])) >= 4
	} else {
		r.altPred = baseTaken
	}
}

func (p *Predictor) Taken(pos int) bool        { return p.at(pos).pred }
func (p *Predictor) SecondChance(pos int) bool { return p.at(pos).strong }

// Update trains the providing component with the resolved outcome,
// adjusts its useful counter when it disagreed with the alternate, and
// on a misprediction allocates a fresh entry in a longer-history table
// picked by useful-bit victim selection.
func (p *Predictor) Update(pos int, taken bool) {
	p.tick++
	if p.tick >= p.params.ResetPeriod {
		p.tick = 0
		for i := range p.tables {
			p.tables[i].u.AgeHalve()
		}
	}
	r := p.at(pos)

	if r.pred != taken && r.provider < len(p.tables)-1 {
		p.allocate(r, taken)
	}

	if r.provider < 0 {
		p.base.Update(int(r.baseIdx), taken)
		return
	}
	tb := &p.tables[r.provider]
	idx := int(r.idx[r.provider])
	tb.ctr.Update(idx, taken)
	if r.pred != r.altPred {
		tb.u.Update(idx, r.pred == taken)
	}
}

// allocate claims an entry in a table with longer history than the
// provider: among candidate slots whose useful counter is zero, the
// LFSR picks one; with no free slot every candidate's useful counter
// is decremented instead (Seznec's anti-ping-pong rule).
func (p *Predictor) allocate(r *posResult, taken bool) {
	var free [maxTables]int
	nFree := 0
	for i := r.provider + 1; i < len(p.tables); i++ {
		if p.tables[i].u.Get(int(r.idx[i])) == 0 {
			free[nFree] = i
			nFree++
		}
	}
	if nFree == 0 {
		for i := r.provider + 1; i < len(p.tables); i++ {
			p.tables[i].u.Update(int(r.idx[i]), false)
		}
		return
	}
	pick := free[int(p.lfsrNext())%nFree]
	tb := &p.tables[pick]
	idx := int(r.idx[pick])
	tb.tag.Set(idx, uint64(r.tag[pick]))
	if taken {
		tb.ctr.Set(idx, 4)
	} else {
		tb.ctr.Set(idx, 3)
	}
	tb.u.Set(idx, 0)
}

// lfsrNext steps a 16-bit Galois LFSR (taps 0xB400), the deterministic
// stand-in for the hardware's pseudo-random victim tie-breaker.
func (p *Predictor) lfsrNext() uint16 {
	lsb := p.lfsr & 1
	p.lfsr >>= 1
	if lsb != 0 {
		p.lfsr ^= 0xB400
	}
	return p.lfsr
}

// Shift feeds the latched block's packed conditional outcomes into the
// private history ring and every folded register (bit n-1 oldest, the
// pht.GHR.ShiftPacked convention).
func (p *Predictor) Shift(n int, bits uint32) {
	for i := n - 1; i >= 0; i-- {
		p.push(bits >> uint(i) & 1)
	}
}

func (p *Predictor) push(b uint32) {
	p.head++
	if p.head == len(p.hist) {
		p.head = 0
	}
	p.hist[p.head] = uint8(b)
	for i := range p.tables {
		tb := &p.tables[i]
		out := uint32(p.bitAge(tb.histLen))
		tb.fIdx.push(b, out)
		tb.fTag0.push(b, out)
		tb.fTag1.push(b, out)
	}
}

// bitAge returns the history bit k positions old (0 = newest).
func (p *Predictor) bitAge(k int) uint8 {
	i := p.head - k
	if i < 0 {
		i += len(p.hist)
	}
	return p.hist[i]
}

// StateBits reports the Table-7-style storage cost: the bimodal base,
// every tagged table's counters, tags and useful bits, and the
// MaxHistory-bit global history register. Folded registers are derived
// state and not counted.
func (p *Predictor) StateBits() int {
	bits := p.base.StateBits() + p.params.MaxHistory
	for i := range p.tables {
		tb := &p.tables[i]
		bits += tb.ctr.StateBits() + tb.tag.StateBits() + tb.u.StateBits()
	}
	return bits
}

// Words reports the backing storage in 64-bit words across all packed
// arrays, for cost cross-checks against StateBits.
func (p *Predictor) Words() int {
	words := p.base.Words()
	for i := range p.tables {
		tb := &p.tables[i]
		words += tb.ctr.Words() + tb.tag.Words() + tb.u.Words()
	}
	return words
}

// Reset restores every table, the history, the folded registers and
// the LFSR in place, as if freshly constructed: counters weakly
// not-taken, tags and useful bits zero. It allocates nothing.
func (p *Predictor) Reset() {
	p.base.Fill(1) // weakly not-taken
	for i := range p.tables {
		tb := &p.tables[i]
		tb.ctr.Fill(3) // weakly not-taken
		tb.tag.Fill(0)
		tb.u.Fill(0)
		tb.fIdx.comp, tb.fTag0.comp, tb.fTag1.comp = 0, 0, 0
	}
	clear(p.hist)
	p.head, p.tick, p.lfsr = 0, 0, 0xACE1
	p.blockAddr, p.startPos = 0, 0
	clear(p.looked)
	clear(p.res)
}

// CounterStates buckets the direction counters (base and tagged) into
// the four 2-bit classes by direction and strength; useful counters
// are bookkeeping, not direction state, and are excluded.
func (p *Predictor) CounterStates() [4]uint64 {
	var dist [4]uint64
	for i := 0; i < p.base.Len(); i++ {
		dist[p.base.Get(i)&3]++
	}
	for i := range p.tables {
		ctr := &p.tables[i].ctr
		for j := 0; j < ctr.Len(); j++ {
			switch c := ctr.Get(j); {
			case c <= 2:
				dist[0]++
			case c == 3:
				dist[1]++
			case c == 4:
				dist[2]++
			default:
				dist[3]++
			}
		}
	}
	return dist
}
