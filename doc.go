// Package mbbp is a reproduction of "Multiple Branch and Block
// Prediction" (Steven Wallace and Nader Bagherzadeh, HPCA-3, 1997): a
// trace-driven simulator for wide-issue instruction fetch prediction.
//
// The paper's mechanisms are all here:
//
//   - a blocked pattern history table that predicts every conditional
//     branch position of a fetch block in one lookup (§2),
//   - block instruction type (BIT) tables, NLS/BTB target arrays with
//     optional near-block target encoding, and a return address stack
//     with dual-block bypassing,
//   - select tables that memoize multiplexer selections so two blocks
//     are predicted per cycle without serialization (§3), in single-
//     and double-selection variants,
//   - the Table 3 misprediction penalty model, bad-branch-recovery
//     bookkeeping (Table 4), three instruction cache organizations
//     (normal, extended, self-aligned; §4.5), and the §5 hardware cost
//     model.
//
// Because the predictors observe only dynamic control flow, the paper's
// SPEC95/SPARC/Shade substrate is replaced by a small RISC ISA, an
// assembler, a functional CPU simulator, and an 18-program workload
// suite named after SPEC95 (see DESIGN.md for the substitution
// argument).
//
// # Quick start
//
// Configurations are assembled with functional options over the
// paper's §4 defaults and run through the canonical entry point
// [Run]:
//
//	tr, _ := mbbp.WorkloadTrace("compress", 1_000_000)
//	cfg := mbbp.NewConfig(mbbp.WithHistoryBits(12), mbbp.WithNearBlock())
//	res, err := mbbp.Run(context.Background(), cfg, tr)
//	if err != nil { ... }
//	fmt.Printf("IPC_f = %.2f, BEP = %.3f\n", res.IPCf(), res.BEP())
//
// [Run] validates the configuration (every failure satisfies
// errors.Is(err, [ErrInvalidConfig]) and names the offending field via
// [ConfigFieldError]), honors context cancellation mid-simulation, and
// is the same code path the mbpsim CLI and the mbbpd service execute —
// results are identical across all three.
//
// For repeated runs over one configuration, [NewEngine] builds a
// reusable engine from the same options:
//
//	eng, err := mbbp.NewEngine(mbbp.WithSingleBlock())
//
// # Predictor strategies
//
// Block-level direction prediction is pluggable: the paper's blocked
// PHT ([PredictorPaper], the default) and a tagged-geometric
// alternative ([PredictorTAGE]) implement one strategy contract over
// the same BIT/select-table/target-array machinery. [WithPredictor]
// selects the family and composes with the shared options; the TAGE*
// options tune the tagged tables:
//
//	eng, err := mbbp.NewEngine(
//		mbbp.WithPredictor(mbbp.PredictorTAGE, mbbp.TAGEHistory(4, 64)),
//	)
//
// [RegisteredPredictors] lists the linked strategies with their
// defaults, and Engine.StateBits reports each strategy's honest
// Table 7 storage cost, so accuracy-per-bit comparisons (mbpexp
// predictors) need no hand-derived formulas. See
// [ExampleWithPredictor] for a runnable side-by-side comparison.
//
// # Deprecated: plain-struct construction
//
// The original pattern — mutating a [Config] struct by hand and
// passing it to an engine constructor — still works via
// [NewEngineFromConfig] and remains supported for existing callers,
// but new code should prefer the options form: it validates eagerly,
// composes, and keeps defaults in one place.
//
// The cmd/mbpexp tool regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for measured-vs-paper results), and
// cmd/mbbpd serves sweeps over HTTP/JSON (see docs/ARCHITECTURE.md).
package mbbp
