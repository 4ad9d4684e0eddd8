// Package core assembles the paper's fetch prediction mechanisms: the
// single-block engine of §2 (multiple branch prediction with a blocked
// PHT, BIT table, target array and return address stack, Figure 1) and
// the dual-block engine of §3 (select-table based multiple block
// prediction with single or double selection, Figures 2-5), together
// with the Table 3 penalty accounting and Table 4 bad-branch-recovery
// bookkeeping.
package core

import (
	"fmt"

	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
)

// FetchMode selects how many blocks are fetched per cycle.
type FetchMode int

const (
	// SingleBlock fetches one block per cycle (§2).
	SingleBlock FetchMode = iota
	// DualBlock fetches two blocks per cycle (§3).
	DualBlock
)

func (m FetchMode) String() string {
	if m == DualBlock {
		return "dual"
	}
	return "single"
}

// TargetArrayKind selects the target array implementation.
type TargetArrayKind int

const (
	// NLS is the tagless direct-mapped array (§2; the paper's default,
	// 256 block entries).
	NLS TargetArrayKind = iota
	// BTB is the tagged 4-way set-associative alternative (Table 5).
	BTB
)

func (k TargetArrayKind) String() string {
	if k == BTB {
		return "BTB"
	}
	return "NLS"
}

// Size caps Validate enforces. They bound what one validated Config can
// make New allocate (a few tens of MB per structure at most), and they
// sit far above every size the paper and the experiments use.
// maxBlockWidth and maxLineSize are the limits the PHT and select-table
// constructors panic beyond.
const (
	maxBlockWidth = 64
	maxLineSize   = 256
	// maxHistoryBits caps the GHR length. maxTableEntries caps the
	// entries across all blocked PHTs (NumPHTs << HistoryBits) and
	// across all select tables (NumSTs << HistoryBits).
	maxHistoryBits   = 20
	maxTableEntries  = 1 << maxHistoryBits
	maxTargetEntries = 1 << 14
	maxBITEntries    = 1 << 16
	maxRASSize       = 1 << 16
	maxICacheLines   = 1 << 20
)

// Config describes one fetch-architecture configuration. The zero value
// is not valid; start from DefaultConfig.
type Config struct {
	// Geometry is the instruction cache organization (block width,
	// line size, banks, §4.5 kind).
	Geometry icache.Geometry

	// HistoryBits is the GHR length (paper default 10); it also sizes
	// the blocked PHT and each select table at 2^HistoryBits entries.
	HistoryBits int

	// NumPHTs is the number of blocked pattern history tables. 1 (the
	// paper's "one global blocked PHT") uses pure gshare indexing;
	// more tables are selected by the block address's low bits — the
	// paper's per-block variation of Yeh's per-addr scheme.
	NumPHTs int

	// IndexMode selects the two-level index function: gshare (the
	// paper's GHR XOR address, default) or history-only (GAg), kept as
	// an ablation of the design choice.
	IndexMode pht.IndexMode

	// NumSTs is the number of select tables (1, 2, 4 or 8 in Figure 8).
	NumSTs int

	// NumBlocks optionally overrides Mode with the number of blocks
	// fetched per cycle: 0 derives it from Mode (1 or 2); 3 or 4
	// enable the §5 extension ("it is possible to predict more than
	// two blocks per cycle"), which requires single selection and adds
	// one select table and one target array per extra block.
	NumBlocks int

	// RASSize is the return address stack depth (paper: 32).
	RASSize int

	// NearBlock enables 3-bit BIT codes and computed near-block
	// targets (§2, Table 5).
	NearBlock bool

	// BITEntries sizes the separate BIT table (Figure 7); 0 stores BIT
	// information in the instruction cache (always fresh), the paper's
	// configuration for every experiment after Figure 7.
	BITEntries int

	// TargetArray and TargetEntries choose the target array
	// implementation and its number of block entries; BTBAssoc applies
	// to the BTB (paper: 4-way, LRU).
	TargetArray   TargetArrayKind
	TargetEntries int
	BTBAssoc      int

	// Mode and Selection pick the fetch engine variant.
	Mode      FetchMode
	Selection metrics.SelectionMode

	// ICacheLines, ICacheAssoc and ICacheMissPenalty enable the
	// optional instruction-cache content model (an extension — the
	// paper assumes a perfect instruction cache, which is
	// ICacheLines = 0, the default). Misses stall fetch for the given
	// penalty and are reported separately from Table 3 charges.
	ICacheLines       int
	ICacheAssoc       int
	ICacheMissPenalty int

	// Storage selects nothing: predictor state is always bit-packed,
	// and Validate accepts only 0. The field exists only so that
	// CanonicalBytes, and so CanonicalHash and the committed digests
	// keyed by it, stay the same. It can go once those digests are
	// re-pinned.
	Storage int

	// Predictor selects the block-level direction-prediction strategy:
	// PredictorPaper (the blocked PHT, the default and the paper's
	// design) or PredictorTAGE (the tagged-geometric family in
	// internal/tage). Every other structure — BIT, select tables,
	// target arrays, RAS — is shared machinery, unchanged by the
	// strategy.
	Predictor PredictorKind

	// TAGE sizes the tagged-geometric predictor; meaningful only when
	// Predictor is PredictorTAGE (Validate rejects it otherwise).
	// Zero-valued fields take the DefaultTAGEParams values.
	TAGE TAGEParams
}

// TAGEParams sizes the tagged-geometric direction predictor. The zero
// value means "all defaults"; individual zero fields default too, so a
// JSON config can override just one knob.
type TAGEParams struct {
	// Tables is the number of tagged tables (default 4).
	Tables int
	// TableBits is log2 entries per tagged table (default 9).
	TableBits int
	// TagBits is the partial tag width per entry (default 8).
	TagBits int
	// BaseBits is log2 entries of the 2-bit bimodal base predictor
	// (default 11).
	BaseBits int
	// MinHistory and MaxHistory bound the geometric history lengths:
	// table i uses roughly MinHistory * r^i bits with
	// r = (MaxHistory/MinHistory)^(1/(Tables-1)) (defaults 4 and 64).
	MinHistory int
	MaxHistory int
	// ResetPeriod is the useful-bit aging period in predictor updates:
	// every ResetPeriod updates, all useful counters are halved
	// (word-level, the periodic reset that keeps victim selection
	// honest). Default 2048.
	ResetPeriod int
}

// DefaultTAGEParams returns the default tagged-geometric geometry:
// four 512-entry tagged tables (8-bit tags, 3-bit counters, 2-bit
// useful), a 2048-entry bimodal base, history lengths 4..64.
func DefaultTAGEParams() TAGEParams {
	return TAGEParams{
		Tables:      4,
		TableBits:   9,
		TagBits:     8,
		BaseBits:    11,
		MinHistory:  4,
		MaxHistory:  64,
		ResetPeriod: 2048,
	}
}

// EffectiveTAGE resolves the configuration's TAGE parameters with
// defaults applied to zero fields.
func (c Config) EffectiveTAGE() TAGEParams {
	p := c.TAGE
	d := DefaultTAGEParams()
	if p.Tables == 0 {
		p.Tables = d.Tables
	}
	if p.TableBits == 0 {
		p.TableBits = d.TableBits
	}
	if p.TagBits == 0 {
		p.TagBits = d.TagBits
	}
	if p.BaseBits == 0 {
		p.BaseBits = d.BaseBits
	}
	if p.MinHistory == 0 {
		p.MinHistory = d.MinHistory
	}
	if p.MaxHistory == 0 {
		p.MaxHistory = d.MaxHistory
	}
	if p.ResetPeriod == 0 {
		p.ResetPeriod = d.ResetPeriod
	}
	return p
}

// DefaultConfig returns the paper's §4 defaults: block width 8, normal
// cache with 8 banks, GHR length 10, one global blocked PHT, 1024-entry
// select table, 32-entry RAS, 256-entry NLS, near-block off, BIT in the
// instruction cache, dual-block fetching with single selection.
func DefaultConfig() Config {
	return Config{
		Geometry:      icache.ForKind(icache.Normal, 8),
		HistoryBits:   10,
		NumPHTs:       1,
		NumSTs:        1,
		RASSize:       32,
		NearBlock:     false,
		BITEntries:    0,
		TargetArray:   NLS,
		TargetEntries: 256,
		BTBAssoc:      4,
		Mode:          DualBlock,
		Selection:     metrics.SingleSelection,
	}
}

// Validate checks the configuration. Every failure wraps
// ErrInvalidConfig and carries the offending field in a *FieldError, so
// callers can branch on the class (errors.Is) or the field (errors.As)
// instead of matching message strings.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return &FieldError{Field: "Geometry", Reason: err.Error()}
	}
	if c.Geometry.BlockWidth > maxBlockWidth {
		return badField("Geometry.BlockWidth", "%d exceeds %d", c.Geometry.BlockWidth, maxBlockWidth)
	}
	if c.Geometry.LineSize > maxLineSize {
		return badField("Geometry.LineSize", "%d exceeds %d", c.Geometry.LineSize, maxLineSize)
	}
	if c.HistoryBits < 1 || c.HistoryBits > maxHistoryBits {
		return badField("HistoryBits", "%d out of range [1,%d]", c.HistoryBits, maxHistoryBits)
	}
	if c.NumPHTs < 0 || (c.NumPHTs > 0 && c.NumPHTs&(c.NumPHTs-1) != 0) {
		return badField("NumPHTs", "%d must be a power of two", c.NumPHTs)
	}
	if c.numPHTs() > maxTableEntries>>c.HistoryBits {
		return badField("NumPHTs", "%d tables of 2^%d entries exceed %d entries", c.numPHTs(), c.HistoryBits, maxTableEntries)
	}
	if c.NumSTs < 1 || c.NumSTs&(c.NumSTs-1) != 0 {
		return badField("NumSTs", "%d must be a power of two", c.NumSTs)
	}
	if c.NumSTs > maxTableEntries>>c.HistoryBits {
		return badField("NumSTs", "%d tables of 2^%d entries exceed %d entries", c.NumSTs, c.HistoryBits, maxTableEntries)
	}
	switch c.NumBlocks {
	case 0:
	case 1:
		if c.Mode != SingleBlock {
			return badField("NumBlocks", "1 conflicts with dual-block mode")
		}
	case 2:
		if c.Mode != DualBlock {
			return badField("NumBlocks", "2 requires dual-block mode")
		}
	case 3, 4:
		if c.Mode != DualBlock {
			return badField("NumBlocks", "%d requires dual-block mode", c.NumBlocks)
		}
		if c.Selection != metrics.SingleSelection {
			return badField("Selection", "more than two blocks requires single selection")
		}
	default:
		return badField("NumBlocks", "%d out of range [0,4]", c.NumBlocks)
	}
	if c.RASSize < 1 || c.RASSize > maxRASSize {
		return badField("RASSize", "%d out of range [1,%d]", c.RASSize, maxRASSize)
	}
	if c.BITEntries < 0 || (c.BITEntries > 0 && c.BITEntries&(c.BITEntries-1) != 0) {
		return badField("BITEntries", "%d must be zero or a power of two", c.BITEntries)
	}
	if c.BITEntries > maxBITEntries {
		return badField("BITEntries", "%d exceeds %d", c.BITEntries, maxBITEntries)
	}
	if c.TargetEntries < 1 || c.TargetEntries&(c.TargetEntries-1) != 0 {
		return badField("TargetEntries", "%d must be a power of two", c.TargetEntries)
	}
	if c.TargetEntries > maxTargetEntries {
		return badField("TargetEntries", "%d exceeds %d", c.TargetEntries, maxTargetEntries)
	}
	if c.TargetArray == BTB {
		if c.BTBAssoc < 1 || c.TargetEntries%c.BTBAssoc != 0 {
			return badField("BTBAssoc", "%d must divide entries %d", c.BTBAssoc, c.TargetEntries)
		}
	}
	if c.Mode == SingleBlock && c.Selection == metrics.DoubleSelection {
		return badField("Selection", "double selection requires dual-block mode")
	}
	if c.ICacheLines > 0 {
		if c.ICacheLines&(c.ICacheLines-1) != 0 {
			return badField("ICacheLines", "%d must be a power of two", c.ICacheLines)
		}
		if c.ICacheLines > maxICacheLines {
			return badField("ICacheLines", "%d exceeds %d", c.ICacheLines, maxICacheLines)
		}
		assoc := c.ICacheAssoc
		if assoc == 0 {
			assoc = 1
		}
		if assoc < 1 || c.ICacheLines%assoc != 0 {
			return badField("ICacheAssoc", "%d must divide ICacheLines %d", assoc, c.ICacheLines)
		}
		if c.ICacheMissPenalty < 1 {
			return badField("ICacheMissPenalty", "must be positive with a finite cache")
		}
	}
	if c.Selection == metrics.DoubleSelection && c.BITEntries != 0 {
		return badField("BITEntries", "double selection removes the BIT table; must be 0")
	}
	if c.Storage != 0 {
		return badField("Storage", "%d is not 0 (predictor state is always bit-packed)", c.Storage)
	}
	switch c.Predictor {
	case PredictorTAGE:
		// The paper-PHT-only knobs must stay at their defaults: they
		// have no meaning for the tagged-geometric tables, and silently
		// ignoring them would make sweeps lie about what varied.
		if c.NumPHTs > 1 {
			return badField("NumPHTs", "%d blocked PHTs apply only to the paper predictor", c.NumPHTs)
		}
		if c.IndexMode != pht.IndexGShare {
			return badField("IndexMode", "%s indexing applies only to the paper predictor", c.IndexMode)
		}
		t := c.EffectiveTAGE()
		if t.Tables < 1 || t.Tables > 12 {
			return badField("TAGE.Tables", "%d out of range [1,12]", t.Tables)
		}
		if t.TableBits < 2 || t.TableBits > 20 {
			return badField("TAGE.TableBits", "%d out of range [2,20]", t.TableBits)
		}
		if t.TagBits < 4 || t.TagBits > 16 {
			return badField("TAGE.TagBits", "%d out of range [4,16]", t.TagBits)
		}
		if t.BaseBits < 2 || t.BaseBits > 24 {
			return badField("TAGE.BaseBits", "%d out of range [2,24]", t.BaseBits)
		}
		if t.MinHistory < 1 || t.MaxHistory > 256 || t.MinHistory > t.MaxHistory {
			return badField("TAGE.MinHistory", "history lengths %d..%d must satisfy 1 <= min <= max <= 256",
				t.MinHistory, t.MaxHistory)
		}
		if t.MaxHistory-t.MinHistory+1 < t.Tables {
			// Strictly increasing per-table lengths within
			// [MinHistory, MaxHistory] need at least Tables distinct
			// values in the range.
			return badField("TAGE.MaxHistory", "history range %d..%d too narrow for %d strictly increasing table lengths",
				t.MinHistory, t.MaxHistory, t.Tables)
		}
		if t.ResetPeriod < 1 {
			return badField("TAGE.ResetPeriod", "%d must be positive", t.ResetPeriod)
		}
	default:
		if !c.Predictor.Valid() {
			return badField("Predictor", "%d is not a known predictor kind", int(c.Predictor))
		}
		if c.TAGE != (TAGEParams{}) {
			return badField("TAGE", "parameters set but Predictor is %s (select PredictorTAGE)", c.Predictor)
		}
	}
	return nil
}

// Blocks returns the number of blocks fetched per cycle.
func (c Config) Blocks() int {
	if c.NumBlocks > 0 {
		return c.NumBlocks
	}
	if c.Mode == DualBlock {
		return 2
	}
	return 1
}

func (c Config) numPHTs() int {
	if c.NumPHTs == 0 {
		return 1
	}
	return c.NumPHTs
}

// String renders a compact configuration summary.
func (c Config) String() string {
	sel := ""
	if c.Blocks() > 1 {
		sel = "/" + c.Selection.String()
	}
	near := ""
	if c.NearBlock {
		near = " near"
	}
	pred := ""
	if c.Predictor != PredictorPaper {
		pred = " " + c.PredictorLabel()
	}
	return fmt.Sprintf("%dblk%s %s W=%d h=%d ST=%d %s=%d%s%s",
		c.Blocks(), sel, c.Geometry.Kind, c.Geometry.BlockWidth, c.HistoryBits,
		c.NumSTs, c.TargetArray, c.TargetEntries, near, pred)
}

// PredictorLabel renders the direction-prediction strategy compactly:
// "paper" for the blocked PHT, or the tagged-geometric shape
// ("tage(4x2^9 tag8 h4-64)").
func (c Config) PredictorLabel() string {
	if c.Predictor != PredictorTAGE {
		return c.Predictor.String()
	}
	t := c.EffectiveTAGE()
	return fmt.Sprintf("tage(%dx2^%d tag%d h%d-%d)",
		t.Tables, t.TableBits, t.TagBits, t.MinHistory, t.MaxHistory)
}
