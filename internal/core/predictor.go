package core

import (
	"fmt"
	"sort"
	"strings"

	"mbbp/internal/pht"
)

// The engine's block-level direction prediction is a strategy: given
// the shared global history and a fetch block's starting address, the
// predictor answers, per instruction position of the block, "would the
// conditional branch at this position be taken?" — plus the strength
// ("second chance") bit the bad-branch-recovery logic reads, and a
// training write per resolved branch. The paper's blocked PHT is the
// first implementation (paperPredictor below); internal/tage plugs a
// tagged-geometric family into the same contract. Everything else in
// the engine — BIT scanning, select tables, target arrays, RAS,
// penalty accounting — is common machinery shared by every strategy.

// Predictor is the block-level direction-prediction strategy. An
// engine owns exactly one instance and drives it single-threaded, one
// block at a time:
//
//	p.Lookup(ghr, blockStart)        // latch the block
//	p.Taken(pos), p.SecondChance(pos) // read predictions (pure)
//	p.Update(pos, taken)             // train resolved branches
//	p.Shift(n, bits)                 // observe the block's outcomes
//
// Lookup latches one fetch block; Taken, SecondChance and Update then
// address instruction positions of that block (the engine's position
// convention: instruction address mod block width). Reads must be free
// of side effects on predictor state so the engine may interleave and
// repeat them (the finite-BIT stale scan predicts the same block
// several times). Update may mutate freely; its effects on subsequent
// reads of the same latched block are implementation-defined but must
// be deterministic. Shift delivers the block's packed conditional
// outcomes in the pht.GHR.ShiftPacked convention (bit n-1 oldest) —
// strategies whose history outlives the shared GHR extend it here.
type Predictor interface {
	// Kind identifies the strategy family.
	Kind() PredictorKind
	// Lookup latches the fetch block starting at blockAddr under the
	// shared global-history value.
	Lookup(history, blockAddr uint32)
	// Taken predicts the direction of a conditional branch at the given
	// position of the latched block.
	Taken(pos int) bool
	// SecondChance reports whether the prediction at pos is strong —
	// one misprediction will not flip its direction (paper Table 2).
	SecondChance(pos int) bool
	// Update trains the predictor with the resolved outcome of the
	// branch at pos of the latched block.
	Update(pos int, taken bool)
	// Shift observes the latched block's packed conditional outcomes
	// (same convention as pht.GHR.ShiftPacked).
	Shift(n int, bits uint32)
	// StateBits returns the strategy's storage cost in bits, by the
	// paper's Table 7 accounting (logical bits, not padded words).
	StateBits() int
	// Reset discards all predictor state, as if freshly built.
	Reset()
	// CounterStates buckets every direction counter into the four
	// 2-bit-counter classes (strongly-NT, weakly-NT, weakly-T,
	// strongly-T) for structure statistics; wider counters map by
	// direction and strength.
	CounterStates() [4]uint64
}

// PredictorKind selects a direction-prediction strategy family.
type PredictorKind int

const (
	// PredictorPaper is the paper's blocked pattern history table
	// (§2; one 2-bit counter per block position, gshare-indexed).
	PredictorPaper PredictorKind = iota
	// PredictorTAGE is the tagged-geometric multiple-branch predictor
	// (internal/tage): N tagged tables with geometric history lengths,
	// XOR-folded tags, 3-bit counters and useful-bit victim selection.
	PredictorTAGE
)

// predictorKindNames is the canonical spelling of each kind, used by
// String, ParsePredictorKind and the CLI/server surfaces.
var predictorKindNames = map[PredictorKind]string{
	PredictorPaper: "paper",
	PredictorTAGE:  "tage",
}

func (k PredictorKind) String() string {
	if s, ok := predictorKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("predictor(%d)", int(k))
}

// Valid reports whether k is a known kind (registered or not).
func (k PredictorKind) Valid() bool {
	_, ok := predictorKindNames[k]
	return ok
}

// ParsePredictorKind resolves the canonical kind spelling ("paper",
// "tage"); the error names the bad value and the known spellings.
func ParsePredictorKind(s string) (PredictorKind, error) {
	for k, name := range predictorKindNames {
		if name == s {
			return k, nil
		}
	}
	known := make([]string, 0, len(predictorKindNames))
	for _, name := range predictorKindNames {
		known = append(known, name)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("unknown predictor kind %q (want %s)", s, strings.Join(known, " or "))
}

// PredictorInfo describes one registered strategy for discovery
// surfaces (mbbpd GET /v1/predictors, CLI help).
type PredictorInfo struct {
	Kind        PredictorKind `json:"kind"`
	Name        string        `json:"name"`
	Description string        `json:"description"`
	// Defaults carries the strategy's default parameters as a
	// JSON-marshalable value (a config fragment).
	Defaults any `json:"defaults"`
}

type predictorEntry struct {
	info  PredictorInfo
	build func(Config) (Predictor, error)
}

var predictorReg = map[PredictorKind]predictorEntry{}

// RegisterPredictor installs a strategy factory. Called from package
// init functions only (the paper predictor here; internal/tage
// registers itself on import) — the registry is not synchronized. A
// kind other than the built-in ones becomes known, and valid in a
// Config, under info.Name.
func RegisterPredictor(info PredictorInfo, build func(Config) (Predictor, error)) {
	if _, dup := predictorReg[info.Kind]; dup {
		panic(fmt.Sprintf("core: RegisterPredictor: kind %s registered twice", info.Kind))
	}
	if !info.Kind.Valid() {
		if _, err := ParsePredictorKind(info.Name); info.Name == "" || err == nil {
			panic(fmt.Sprintf("core: RegisterPredictor: kind %d needs a new name, got %q", int(info.Kind), info.Name))
		}
		predictorKindNames[info.Kind] = info.Name
	}
	info.Name = info.Kind.String()
	predictorReg[info.Kind] = predictorEntry{info: info, build: build}
}

// RegisteredPredictors lists the linked strategies in kind order.
func RegisteredPredictors() []PredictorInfo {
	out := make([]PredictorInfo, 0, len(predictorReg))
	for _, e := range predictorReg {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// NewPredictor builds the configured strategy for a validated
// configuration. An unknown kind fails Validate first; a known kind
// whose implementation is not linked into the binary reports a
// FieldError naming the kind.
func NewPredictor(cfg Config) (Predictor, error) {
	e, ok := predictorReg[cfg.Predictor]
	if !ok {
		return nil, badField("Predictor", "kind %s is not linked into this binary", cfg.Predictor)
	}
	return e.build(cfg)
}

func init() {
	RegisterPredictor(PredictorInfo{
		Kind:        PredictorPaper,
		Description: "blocked pattern history table (HPCA'97 §2): one gshare-indexed entry of W 2-bit counters predicts every conditional branch position of a fetch block",
		Defaults: map[string]int{
			"HistoryBits": 10,
			"NumPHTs":     1,
		},
	}, func(cfg Config) (Predictor, error) {
		return newPaperPredictor(cfg), nil
	})
}

// paperPredictor adapts the paper's blocked PHT to the Predictor
// contract. Lookup resolves one entry handle (all W counters of the
// block, one packed word); the per-position calls are the same direct
// counter operations the engine previously issued on the handle, so
// results are bit-for-bit what the pre-interface engine produced.
type paperPredictor struct {
	tab   *pht.Blocked
	entry pht.Entry

	// rebuild parameters for Reset.
	cfg Config
}

func newPaperPredictor(cfg Config) *paperPredictor {
	p := &paperPredictor{cfg: cfg}
	p.tab = pht.NewBlockedMulti(cfg.HistoryBits, cfg.Geometry.BlockWidth,
		cfg.numPHTs(), cfg.IndexMode)
	p.entry = p.tab.At(0)
	return p
}

func (p *paperPredictor) Kind() PredictorKind { return PredictorPaper }

func (p *paperPredictor) Lookup(history, blockAddr uint32) {
	p.entry = p.tab.At(p.tab.Index(history, blockAddr))
}

func (p *paperPredictor) Taken(pos int) bool         { return p.entry.Taken(pos) }
func (p *paperPredictor) SecondChance(pos int) bool  { return p.entry.SecondChance(pos) }
func (p *paperPredictor) Update(pos int, taken bool) { p.entry.Update(pos, taken) }
func (p *paperPredictor) Shift(n int, bits uint32)   {} // reads the shared GHR via Lookup

func (p *paperPredictor) StateBits() int { return p.tab.StateBits() }

func (p *paperPredictor) Reset() { *p = *newPaperPredictor(p.cfg) }

func (p *paperPredictor) CounterStates() [4]uint64 {
	var dist [4]uint64
	for i := 0; i < p.tab.Entries(); i++ {
		for pos := 0; pos < p.tab.Width(); pos++ {
			dist[p.tab.CounterAt(uint32(i), pos)&3]++
		}
	}
	return dist
}
