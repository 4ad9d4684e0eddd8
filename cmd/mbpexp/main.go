// Command mbpexp regenerates the tables and figures of the paper's
// evaluation section (Wallace & Bagherzadeh, HPCA 1997), plus the
// headline-claims comparison, the predictor-strategy comparison, the
// Yeh-BAC baseline, the documented extensions and ablations, and a
// self-contained markdown report.
//
// Usage:
//
//	mbpexp [-n instructions] [-programs a,b,c] [-csv|-chart] [-warmup] <experiment>|all
//
// Run mbpexp -h for the experiment list. The registry is the harness's
// experiment descriptors, so the usage text, the `all` sequence, the
// -csv and -chart help and the dispatcher cannot drift apart. -csv
// exits 2 when a target has no CSV form.
//
// events replays each program under an engine event tap and prints the
// top -topn block addresses per misprediction kind (Table 3) by penalty
// cycles — the first place to look when a configuration regresses.
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

	"mbbp/internal/harness"
)

// registry is every experiment mbpexp runs: the harness's list, which
// `all` runs in order, then the report, which re-renders most of them
// and so runs standalone only.
var registry = append(append([]harness.Experiment(nil), harness.Experiments...), harness.Report)

// findExperiment resolves a registry entry by name.
func findExperiment(name string) (harness.Experiment, bool) {
	for _, ex := range registry {
		if ex.String() == name {
			return ex, true
		}
	}
	return nil, false
}

// names joins the names of the experiments in list that render in
// form f; every experiment has a text form.
func names(list []harness.Experiment, f harness.Form) string {
	var out []string
	for _, ex := range list {
		if ex.Has(f) {
			out = append(out, ex.String())
		}
	}
	return strings.Join(out, " ")
}

func main() {
	n := flag.Uint64("n", 1_000_000, "dynamic instructions per program")
	programs := flag.String("programs", "", "comma-separated workload subset (default: full suite)")
	warmup := flag.Bool("warmup", false, "run an untimed training pass before measuring")
	chart := flag.Bool("chart", false, "draw terminal charts alongside the tables ("+names(registry, harness.FormChart)+")")
	asCSV := flag.Bool("csv", false, "emit CSV instead of tables ("+names(registry, harness.FormCSV)+")")
	topN := flag.Int("topn", 0, "events/h2p: block addresses shown (0 = experiment default: events 5, h2p 10)")
	histories := flag.String("histories", "", "h2p: comma-separated history-length sensitivity grid (default 6,8,10,12,14)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mbpexp [flags] %s|all\n",
			strings.ReplaceAll(names(registry, harness.FormText), " ", "|"))
		fmt.Fprintf(os.Stderr, "  all runs: %s\n", names(harness.Experiments, harness.FormText))
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

	// Resolve the targets before tracing so a bad request fails fast.
	targets := harness.Experiments
	if what != "all" {
		ex, ok := findExperiment(what)
		if !ok {
			fmt.Fprintf(os.Stderr, "mbpexp: unknown experiment %q\n", what)
			os.Exit(2)
		}
		targets = []harness.Experiment{ex}
	}
	if *asCSV {
		var without []string
		for _, ex := range targets {
			if !ex.Has(harness.FormCSV) {
				without = append(without, ex.String())
			}
		}
		if len(without) > 0 {
			fmt.Fprintf(os.Stderr, "mbpexp: -csv: no CSV form for %s; experiments with one: %s\n",
				strings.Join(without, " "), names(registry, harness.FormCSV))
			os.Exit(2)
		}
	}

	opts := harness.Options{Instructions: *n, Warmup: *warmup}
	if *programs != "" {
		opts.Programs = strings.Split(*programs, ",")
	}
	hs, err := harness.ParseHistories(*histories)
	if err != nil {
		fail(err)
	}
	params := harness.Params{TopN: *topN, Histories: hs, Options: opts}

	var ts *harness.TraceSet
	for _, ex := range targets {
		if ex.Traced() {
			fmt.Fprintf(os.Stderr, "mbpexp: tracing %d instructions per program...\n", *n)
			if ts, err = harness.LoadTraces(opts); err != nil {
				fail(err)
			}
			break
		}
	}

	// Submit every target before rendering any, keeping the pool
	// saturated across experiment boundaries under `all`.
	sched := harness.DefaultScheduler()
	waits := make([]func() (harness.Renderer, error), len(targets))
	for i, ex := range targets {
		waits[i] = ex.Start(sched, ts, params)
	}
	for i, wait := range waits {
		render, err := wait()
		if err != nil {
			fail(err)
		}
		if *asCSV {
			err = render(os.Stdout, harness.FormCSV)
		} else {
			err = render(os.Stdout, harness.FormText)
			if err == nil && *chart && targets[i].Has(harness.FormChart) {
				fmt.Println()
				err = render(os.Stdout, harness.FormChart)
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Println()
	}
}
