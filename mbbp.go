package mbbp

import (
	"io"

	"mbbp/internal/asm"
	"mbbp/internal/bac"
	"mbbp/internal/core"
	"mbbp/internal/cost"
	"mbbp/internal/cpu"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
	_ "mbbp/internal/tage" // register the TAGE predictor strategy
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// Core configuration and engine types.
type (
	// Config selects one fetch-architecture configuration.
	Config = core.Config
	// Engine is a configured instance of the paper's fetch hardware.
	Engine = core.Engine
	// Result carries the metrics of one simulation (BEP, IPC_f, IPB,
	// penalty breakdown).
	Result = metrics.Result
	// PenaltyKind is one row of the paper's Table 3.
	PenaltyKind = metrics.Kind
	// Geometry describes an instruction cache organization.
	Geometry = icache.Geometry
	// Program is an assembled mini-ISA program.
	Program = isa.Program
	// TraceBuffer is an in-memory trace and its read cursor; every
	// simulator walks one.
	TraceBuffer = trace.Buffer
	// CostEstimate is a §5 hardware cost breakdown.
	CostEstimate = cost.Estimate
	// CostParams are the Table 7 symbols.
	CostParams = cost.Params
	// BaselineConfig sizes the Yeh/Marr/Patt branch-address-cache
	// baseline the paper compares against.
	BaselineConfig = bac.Config
	// BaselineEngine is the BAC-based fetch engine.
	BaselineEngine = bac.Engine
	// FetchEvent describes one fetch block as the engine handled it;
	// install an observer with Engine.SetObserver.
	FetchEvent = core.Event
	// FetchObserver receives per-block events.
	FetchObserver = core.Observer
	// EngineStats is a snapshot of predictor structure state
	// (Engine.Stats).
	EngineStats = core.StructStats
	// PredictorKind selects a direction-prediction strategy family
	// (PredictorPaper or PredictorTAGE).
	PredictorKind = core.PredictorKind
	// TAGEParams are the tagged-geometric strategy's knobs; the zero
	// value means all defaults.
	TAGEParams = core.TAGEParams
	// PredictorInfo describes one registered strategy.
	PredictorInfo = core.PredictorInfo
)

// LogObserver prints one line per fetch block, up to limit blocks.
func LogObserver(w io.Writer, limit uint64) FetchObserver {
	return &core.LogObserver{W: w, Limit: limit}
}

// Fetch modes, target array kinds, selection modes and cache kinds.
const (
	SingleBlock = core.SingleBlock
	DualBlock   = core.DualBlock

	NLS = core.NLS
	BTB = core.BTB

	SingleSelection = metrics.SingleSelection
	DoubleSelection = metrics.DoubleSelection

	// IndexGShare is the paper's GHR-XOR-address indexing; IndexGlobal
	// (history only) is kept as an ablation.
	IndexGShare = pht.IndexGShare
	IndexGlobal = pht.IndexGlobal

	CacheNormal      = icache.Normal
	CacheExtended    = icache.Extended
	CacheSelfAligned = icache.SelfAligned

	// PredictorPaper is the paper's blocked PHT (the default);
	// PredictorTAGE is the tagged-geometric alternative strategy.
	PredictorPaper = core.PredictorPaper
	PredictorTAGE  = core.PredictorTAGE
)

// RegisteredPredictors lists the strategy families linked into this
// binary, in kind order, with their default parameters.
func RegisteredPredictors() []PredictorInfo { return core.RegisteredPredictors() }

// ParsePredictorKind resolves a strategy's canonical spelling ("paper",
// "tage").
func ParsePredictorKind(s string) (PredictorKind, error) {
	return core.ParsePredictorKind(s)
}

// Configuration errors. Validate (and therefore NewEngine and Run)
// reports every invalid configuration as a *ConfigFieldError wrapping
// ErrInvalidConfig.
var ErrInvalidConfig = core.ErrInvalidConfig

// ConfigFieldError carries the field-level detail of a validation
// failure; recover it with errors.As.
type ConfigFieldError = core.FieldError

// DefaultConfig returns the paper's §4 defaults (block width 8, normal
// cache, 10-bit history, 256-entry NLS, dual-block single selection).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEngine builds a fetch engine from the paper's §4 defaults plus the
// given options:
//
//	eng, err := mbbp.NewEngine(mbbp.WithHistoryBits(12), mbbp.WithNearBlock())
//
// A configuration built elsewhere enters through WithConfig or
// NewEngineFromConfig. Invalid combinations return an error wrapping
// ErrInvalidConfig.
func NewEngine(opts ...Option) (*Engine, error) {
	return core.New(NewConfig(opts...))
}

// NewEngineFromConfig builds a fetch engine for a plain Config value —
// the original construction path, kept for code that assembles the
// struct directly. New code should prefer NewEngine with options, or
// Run.
func NewEngineFromConfig(cfg Config) (*Engine, error) { return core.New(cfg) }

// CacheGeometry returns the paper's Table 6 geometry for a cache kind
// and block width.
func CacheGeometry(kind icache.Kind, blockWidth int) Geometry {
	return icache.ForKind(kind, blockWidth)
}

// Workloads returns the names of the built-in benchmark suite (CINT95
// names first, then CFP95).
func Workloads() []string { return workload.Names() }

// IntWorkloads returns the integer benchmark names.
func IntWorkloads() []string { return workload.IntNames() }

// FPWorkloads returns the floating-point benchmark names.
func FPWorkloads() []string { return workload.FPNames() }

// WorkloadTrace executes a built-in benchmark for n dynamic
// instructions and returns its trace.
func WorkloadTrace(name string, n uint64) (*TraceBuffer, error) {
	b, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return b.Trace(n)
}

// Assemble assembles mini-ISA source text into a program; see
// internal/asm for the syntax.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// CaptureTrace runs an assembled program for n instructions and returns
// the trace it produces.
func CaptureTrace(p *Program, n uint64) (*TraceBuffer, error) {
	return trace.Capture(p, cpu.DefaultConfig(), n)
}

// ScalarMispredictRate runs the Figure 6 scalar two-level baseline over
// a trace and returns its conditional misprediction rate. It walks a
// private cursor (a clone of src), so concurrent calls may share src.
func ScalarMispredictRate(src *TraceBuffer, historyBits, numTables int) float64 {
	return core.RunScalar(src.Clone(), historyBits, numTables).MispredictRate()
}

// EstimateCost evaluates the §5 cost model.
func EstimateCost(p CostParams) CostEstimate { return cost.Compute(p) }

// PaperCostParams returns the §5 walkthrough parameters (W=8, 10-bit
// history, 256-entry NLS, 1024-entry BIT, 8 BBR entries).
func PaperCostParams() CostParams { return cost.PaperParams() }

// DefaultBaselineConfig returns a 256-entry 4-way BAC baseline matched
// to the main engine's defaults.
func DefaultBaselineConfig() BaselineConfig { return bac.DefaultConfig() }

// NewBaselineEngine builds the Yeh-style branch-address-cache baseline
// (reference [11] of the paper), whose per-entry cost grows
// exponentially with the branches predicted per cycle.
func NewBaselineEngine(cfg BaselineConfig) (*BaselineEngine, error) { return bac.New(cfg) }

// BaselineCostBits estimates BAC storage (see bac.CostBits).
func BaselineCostBits(entries, addrBits, branches int) int {
	return bac.CostBits(entries, addrBits, branches)
}
