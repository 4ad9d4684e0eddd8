// Command bench is the repository's benchmark. It runs one of four
// named workloads against the simulator's public functions and the
// mbbpd service, checks every simulated result against an independent
// serial re-simulation (and, for seed 1, against committed digests),
// and prints the end-to-end metrics declared in BENCHMARK.json; a traced
// run prints the per-layer metrics instead and writes the spans it
// recorded. See README.md for the metrics, the workloads and how to
// compare two commits.
//
// Usage (from the repository root, through bench/run.sh, which builds
// this program and mbbpd from the checkout; `go -C bench run .` takes the
// same arguments):
//
//	bash bench/run.sh --workload sweep-lanes --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1              # every workload, one child process each
//	bash bench/run.sh --workload sweep-lanes --update   # regenerate the seed-1 digests
//	bash bench/run.sh compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// options are the command-line settings of one run.
type options struct {
	root, workdir, mbbpd string
	workload             string
	seed                 int64
	seconds              float64
	traced               bool
	n                    uint64 // per-program instructions; 0 = workload default
	spansPath            string
	record               string
	update               bool
	nproc                int
	sp                   *spec
}

// sizeOr returns the -n override, or def.
func (o *options) sizeOr(def uint64) uint64 {
	if o.n > 0 {
		return o.n
	}
	return def
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	notes             []string
	prov              *provenance
	spans             *recorder
}

func newOutcome(o *options) *outcome {
	return &outcome{
		values:  map[string]float64{},
		samples: map[string]int{},
		prov:    newProvenance(o),
	}
}

// set records a metric value with the number of samples behind it.
func (out *outcome) set(name string, v float64, samples int) {
	out.values[name] = v
	out.samples[name] = samples
}

func (out *outcome) note(format string, args ...any) {
	out.notes = append(out.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation, failing it when err is non-nil.
func (out *outcome) check(err error) {
	out.attempted++
	if err != nil {
		out.failed++
		if out.failed <= 20 {
			out.note("FAIL: %v", err)
		}
	}
}

type workloadFunc func(ctx context.Context, o *options, out *outcome) error

// workloadFuncs maps the workload names BENCHMARK.json declares to their
// runners; main refuses to start when the two disagree.
var workloadFuncs = map[string]workloadFunc{
	"sweep-lanes":      runSweepLanes,
	"sweep-geometries": runSweepGeometries,
	"tracefile-h2p":    runTracefileH2P,
	"service-mixed":    runServiceMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := &options{nproc: runtime.NumCPU()}
	fs.StringVar(&o.root, "root", "..", "repository root holding BENCHMARK.json")
	fs.StringVar(&o.workdir, "workdir", "", "directory for trace files, spans and built binaries (default: <root>/.bench_build)")
	fs.StringVar(&o.mbbpd, "mbbpd", "", "mbbpd binary (default: build it into -workdir)")
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own child process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (1 for development, 2 held out to confirm claims)")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds to measure (default: run_seconds from BENCHMARK.json)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write spans")
	fs.Uint64Var(&o.n, "n", 0, "per-program instructions (default: the workload's own)")
	fs.StringVar(&o.spansPath, "spans", "", "spans file of a traced run (default: <workdir>/spans-<workload>-seed<seed>.json)")
	fs.StringVar(&o.record, "record", "", "append this run's result as one JSON line to the file (input of compare)")
	fs.BoolVar(&o.update, "update", false, "regenerate the committed seed digests of -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	}
	o.traced = *traceFlag == 1

	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		sp, err := loadSpec(o.root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return compareMain(sp, fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	sp, err := loadSpec(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o.sp = sp
	if err := checkWorkloads(sp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.workdir == "" {
		o.workdir = filepath.Join(o.root, ".bench_build")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.workload == "" {
		return runAll(ctx, o, args, stdout)
	}
	fn, ok := workloadFuncs[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n",
			o.workload, strings.Join(sp.workloadNames(), ", "))
		return 2
	}
	if o.update {
		if err := updateExpected(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	return runOne(ctx, o, fn, stdout)
}

// checkWorkloads verifies that the spec and the runners name the same
// workloads.
func checkWorkloads(sp *spec) error {
	if len(sp.Workloads) != len(workloadFuncs) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the benchmark implements %d",
			len(sp.Workloads), len(workloadFuncs))
	}
	for _, name := range sp.workloadNames() {
		if workloadFuncs[name] == nil {
			return fmt.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not implement", name)
		}
	}
	return nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its report.
func runOne(ctx context.Context, o *options, fn workloadFunc, stdout io.Writer) int {
	out := newOutcome(o)
	if o.traced {
		out.spans = newRecorder()
	}
	if err := fn(ctx, o, out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := o.sp.checkValues(out.values, o.traced); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if out.attempted == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: no operation was attempted\n", o.workload)
		return 1
	}
	if o.traced {
		path := o.spansPath
		if path == "" {
			path = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		}
		if err := out.spans.write(path, out.prov); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		out.note("spans: %d written to %s", out.spans.len(), path)
	}

	res := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	w := bufio.NewWriter(stdout)
	out.prov.print(w)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# error_frac %.6g (%d failed of %d attempted)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	for _, m := range o.sp.metrics(o.traced) {
		v := out.values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %-9s samples=%d\n", m.Name, v, m.Unit, out.samples[m.Name])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.record != "" {
		if err := appendRecord(o, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, one after another, each in a child
// process of its own so each gets a fresh heap and its own peak RSS.
func runAll(ctx context.Context, o *options, args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type row struct {
		workload string
		res      resultLine
	}
	var rows []row
	status := 0
	for _, name := range o.sp.workloadNames() {
		fmt.Fprintf(stdout, "== %s\n", name)
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			status = 1
		}
		var res resultLine
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			status = 1
			continue
		}
		rows = append(rows, row{name, res})
	}
	if status != 0 || len(rows) != len(o.sp.Workloads) {
		return 1
	}
	fmt.Fprintf(stdout, "== summary (seed %d)\n", o.seed)
	var names []string
	for _, m := range o.sp.metrics(o.traced) {
		names = append(names, m.Name)
	}
	fmt.Fprintf(stdout, "%-34s", "metric")
	for _, r := range rows {
		fmt.Fprintf(stdout, " %16s", r.workload)
	}
	fmt.Fprintln(stdout)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-34s", name)
		for _, r := range rows {
			fmt.Fprintf(stdout, " %16s", strconv.FormatFloat(r.res.Metrics[name].Value, 'g', 6, 64))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-34s", "error_frac")
	for _, r := range rows {
		fmt.Fprintf(stdout, " %16s", fmt.Sprintf("%d/%d", r.res.Failed, r.res.Attempted))
	}
	fmt.Fprintln(stdout)
	return 0
}

// record is one line of a compare input file.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
}

func appendRecord(o *options, res resultLine) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Traced: o.traced, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.record, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing record: %w", err)
	}
	return f.Close()
}

// readRecords reads a compare input file.
func readRecords(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
