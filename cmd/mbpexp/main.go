// Command mbpexp regenerates the tables and figures of the paper's
// evaluation section (Wallace & Bagherzadeh, HPCA 1997), plus the
// headline-claims comparison, the Yeh-BAC baseline, the documented
// extensions and ablations, and a self-contained markdown report.
//
// Usage:
//
//	mbpexp [-n instructions] [-programs a,b,c] [-csv|-chart] [-warmup] <experiment>|all
//
// Run mbpexp -h for the experiment list — it is generated from the
// same registry that dispatches them, so the usage text, the `all`
// sequence and the dispatcher cannot drift apart.
//
// events replays each program under an engine event tap and prints the
// top -topn block addresses per misprediction kind (Table 3) by penalty
// cycles — the first place to look when a configuration regresses.
//
// compare -predictor tage renders the predictor-strategy comparison
// (paper blocked PHT vs TAGE, accuracy per direction-storage bit)
// instead of the headline claims.
//
// Every experiment flattens its (configuration × program) grid onto
// one work-stealing pool and folds results in declaration order, so
// the output is byte-identical to a serial run; `all` shares the pool
// across experiments. Host-cost measurement lives in the benchmark
// module under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mbbp/internal/core"
	"mbbp/internal/harness"
)

// env carries the parsed flag state and shared resources to every
// experiment's prepare function.
type env struct {
	sched *harness.Scheduler
	ts    *harness.TraceSet

	n         uint64
	opts      harness.Options
	csv       bool
	chart     bool
	topN      int
	histories string
	predictor core.PredictorKind
}

// experiment is one registry entry. The registry is the single source
// for the usage text, the `all` sequence and dispatch.
type experiment struct {
	name string
	// inAll: part of the `all` sequence (report re-renders everything,
	// so it runs standalone only).
	inAll bool
	// needsTraces: loads the workload set before running.
	needsTraces bool
	// prepare submits the experiment's grid to the pool and returns
	// the function that waits and renders — the two-phase shape that
	// keeps the pool saturated across experiment boundaries under
	// `all`.
	prepare func(e *env) func() error
}

var experiments = []experiment{
	{"fig6", true, true, func(e *env) func() error {
		wait := harness.Fig6Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVFig6(os.Stdout, rows)
			}
			harness.RenderFig6(os.Stdout, rows)
			if e.chart {
				fmt.Println()
				harness.ChartFig6(os.Stdout, rows)
			}
			return nil
		}
	}},
	{"fig7", true, true, func(e *env) func() error {
		wait := harness.Fig7Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVFig7(os.Stdout, rows)
			}
			harness.RenderFig7(os.Stdout, rows)
			if e.chart {
				fmt.Println()
				harness.ChartFig7(os.Stdout, rows)
			}
			return nil
		}
	}},
	{"fig8", true, true, func(e *env) func() error {
		wait := harness.Fig8Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVFig8(os.Stdout, rows)
			}
			harness.RenderFig8(os.Stdout, rows)
			if e.chart {
				fmt.Println()
				harness.ChartFig8(os.Stdout, rows)
			}
			return nil
		}
	}},
	{"table5", true, true, func(e *env) func() error {
		wait := harness.Table5Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVTable5(os.Stdout, rows)
			}
			harness.RenderTable5(os.Stdout, rows)
			return nil
		}
	}},
	{"table6", true, true, func(e *env) func() error {
		wait := harness.Table6Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVTable6(os.Stdout, rows)
			}
			harness.RenderTable6(os.Stdout, rows)
			return nil
		}
	}},
	{"fig9", true, true, func(e *env) func() error {
		wait := harness.Fig9Async(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVFig9(os.Stdout, rows)
			}
			harness.RenderFig9(os.Stdout, rows)
			if e.chart {
				fmt.Println()
				harness.ChartFig9(os.Stdout, rows)
			}
			return nil
		}
	}},
	{"cost", true, false, func(e *env) func() error {
		return func() error {
			harness.RenderCost(os.Stdout)
			return nil
		}
	}},
	{"extblocks", true, true, func(e *env) func() error {
		wait := harness.ExtBlocksAsync(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderExtBlocks(os.Stdout, rows)
			return nil
		}
	}},
	{"ablation", true, true, func(e *env) func() error {
		wait := harness.AblationPHTAsync(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderAblationPHT(os.Stdout, rows)
			return nil
		}
	}},
	{"baseline", true, true, func(e *env) func() error {
		wait := harness.BaselineAsync(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderBaseline(os.Stdout, rows)
			return nil
		}
	}},
	{"compare", true, true, func(e *env) func() error {
		// With -predictor set, compare renders the strategy
		// comparison (accuracy per direction-storage bit) instead of
		// the headline claims.
		if e.predictor != core.PredictorPaper {
			wait := harness.ComparePredictorsAsync(e.sched, e.ts, e.predictor)
			return func() error {
				rows, err := wait()
				if err != nil {
					return err
				}
				if e.csv {
					return harness.CSVPredictors(os.Stdout, rows)
				}
				harness.RenderPredictors(os.Stdout, rows)
				return nil
			}
		}
		wait := harness.CompareAsync(e.sched, e.ts)
		return func() error {
			c, err := wait()
			if err != nil {
				return err
			}
			harness.RenderComparison(os.Stdout, c)
			return nil
		}
	}},
	{"predictors", true, true, func(e *env) func() error {
		kind := e.predictor
		if kind == core.PredictorPaper {
			kind = core.PredictorTAGE
		}
		wait := harness.ComparePredictorsAsync(e.sched, e.ts, kind)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVPredictors(os.Stdout, rows)
			}
			harness.RenderPredictors(os.Stdout, rows)
			return nil
		}
	}},
	{"widths", true, true, func(e *env) func() error {
		wait := harness.WidthsAsync(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderWidths(os.Stdout, rows)
			return nil
		}
	}},
	{"seeds", true, true, func(e *env) func() error {
		wait := harness.SeedsAsync(e.sched, e.opts, nil)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderSeeds(os.Stdout, rows)
			return nil
		}
	}},
	{"icache", true, true, func(e *env) func() error {
		wait := harness.ICacheAsync(e.sched, e.ts)
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			harness.RenderICache(os.Stdout, rows)
			return nil
		}
	}},
	{"events", true, true, func(e *env) func() error {
		wait := harness.EventsAsync(e.sched, e.ts, core.DefaultConfig())
		return func() error {
			rows, err := wait()
			if err != nil {
				return err
			}
			if e.csv {
				return harness.CSVEvents(os.Stdout, rows, e.topN)
			}
			harness.RenderEvents(os.Stdout, rows, e.topN)
			return nil
		}
	}},
	{"h2p", true, true, func(e *env) func() error {
		hs, err := harness.ParseHistories(e.histories)
		if err != nil {
			return func() error { return err }
		}
		wait := harness.H2PAsync(e.sched, e.ts, core.DefaultConfig(), hs)
		return func() error {
			rows, werr := wait()
			if werr != nil {
				return werr
			}
			if e.csv {
				return harness.CSVH2P(os.Stdout, rows, e.topN)
			}
			harness.RenderH2P(os.Stdout, rows, e.topN)
			return nil
		}
	}},
	{"report", false, true, func(e *env) func() error {
		return func() error { return harness.WriteReport(os.Stdout, e.ts, e.n) }
	}},
}

// findExperiment resolves a registry entry by name.
func findExperiment(name string) (experiment, bool) {
	for _, ex := range experiments {
		if ex.name == name {
			return ex, true
		}
	}
	return experiment{}, false
}

// experimentNames returns the registry names in order; allOnly filters
// to the `all` sequence.
func experimentNames(allOnly bool) []string {
	var names []string
	for _, ex := range experiments {
		if !allOnly || ex.inAll {
			names = append(names, ex.name)
		}
	}
	return names
}

func main() {
	n := flag.Uint64("n", 1_000_000, "dynamic instructions per program")
	programs := flag.String("programs", "", "comma-separated workload subset (default: full suite)")
	warmup := flag.Bool("warmup", false, "run an untimed training pass before measuring")
	chart := flag.Bool("chart", false, "draw terminal charts alongside the tables")
	asCSV := flag.Bool("csv", false, "emit CSV instead of tables (fig6-9, table5-6, predictors)")
	topN := flag.Int("topn", 0, "events/h2p: block addresses shown (0 = experiment default: events 5, h2p 10)")
	histories := flag.String("histories", "", "h2p: comma-separated history-length sensitivity grid (default 6,8,10,12,14)")
	predictor := flag.String("predictor", "", "compare/predictors: second strategy family (tage) for the accuracy-per-bit table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mbpexp [flags] %s|all\n",
			strings.Join(experimentNames(false), "|"))
		fmt.Fprintf(os.Stderr, "  all runs: %s\n", strings.Join(experimentNames(true), " "))
		fmt.Fprintf(os.Stderr, "  (report re-renders every experiment, so it runs standalone only.)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	what := flag.Arg(0)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mbpexp:", err)
		os.Exit(1)
	}

	e := &env{
		n:         *n,
		csv:       *asCSV,
		chart:     *chart,
		topN:      *topN,
		histories: *histories,
	}
	if *predictor != "" {
		kind, err := core.ParsePredictorKind(*predictor)
		if err != nil {
			fail(err)
		}
		e.predictor = kind
	}

	opts := harness.Options{Instructions: *n, Warmup: *warmup}
	if *programs != "" {
		opts.Programs = strings.Split(*programs, ",")
	}
	e.opts = opts

	// Resolve the target before tracing so an unknown name fails fast.
	var targets []experiment
	if what == "all" {
		for _, name := range experimentNames(true) {
			ex, _ := findExperiment(name)
			targets = append(targets, ex)
		}
	} else {
		ex, ok := findExperiment(what)
		if !ok {
			fmt.Fprintf(os.Stderr, "mbpexp: unknown experiment %q\n", what)
			os.Exit(2)
		}
		targets = []experiment{ex}
	}

	needTraces := false
	for _, ex := range targets {
		needTraces = needTraces || ex.needsTraces
	}
	if needTraces {
		fmt.Fprintf(os.Stderr, "mbpexp: tracing %d instructions per program...\n", *n)
		var err error
		e.ts, err = harness.LoadTraces(opts)
		if err != nil {
			fail(err)
		}
	}
	e.sched = harness.DefaultScheduler()

	// Prepare every target before finishing any, keeping the pool
	// saturated across experiment boundaries under `all`.
	finishers := make([]func() error, len(targets))
	for i, ex := range targets {
		finishers[i] = ex.prepare(e)
	}
	for _, finish := range finishers {
		if err := finish(); err != nil {
			fail(err)
		}
		fmt.Println()
	}
}
