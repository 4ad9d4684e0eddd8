package harness

import (
	"fmt"
	"io"

	"mbbp/internal/metrics"
	"mbbp/internal/paperdata"
)

// Report renders the experiments as one self-contained markdown
// document with paper-vs-measured commentary — the machine-generated
// counterpart of EXPERIMENTS.md (mbpexp report > report.md). Every
// section's run is submitted before any section renders, so all the
// sweeps' jobs interleave on one pool while the sections are written
// in order.
var Report = &Descriptor[[]func(io.Writer) error]{Name: "report", Run: runReport, Text: renderReport}

// reportSections is the report's layout, in order.
var reportSections = []reportSection{
	section("Figure 6 — blocked vs scalar PHT", Fig6, noteFig6),
	section("Figure 7 — BIT table size", Fig7, noteFig7),
	section("Figure 8 — single vs double selection", Fig8, noteFig8),
	section("Table 5 — target arrays", Table5, nil),
	section("Table 6 — cache organizations", Table6, noteTable6),
	section("Figure 9 — BEP breakdown", Fig9, noteFig9),
	section("Headline claims", Compare, nil),
	section("Extension: blocks per cycle (§5)", ExtBlocks, nil),
	section("Ablation: PHT organization", Ablation, nil),
	section("Baseline: Yeh branch address cache", Baseline, nil),
	section("Block width sweep (§4 remark)", Widths, nil),
	section("Extension: finite instruction cache", ICache, nil),
	section("Hardware cost (§5)", Cost, nil),
}

// reportSection submits one section's run; its wait function returns
// the section's writer.
type reportSection func(s *Scheduler, ts *TraceSet, p Params) func() (func(io.Writer) error, error)

// section lays out d's table under title, followed by note's
// commentary when note is non-nil.
func section[R any](title string, d *Descriptor[R], note func(io.Writer, R) error) reportSection {
	return func(s *Scheduler, ts *TraceSet, p Params) func() (func(io.Writer) error, error) {
		wait := d.submit(s, ts, p)
		return func() (func(io.Writer) error, error) {
			r, err := wait()
			if err != nil {
				return nil, err
			}
			return func(w io.Writer) error {
				fmt.Fprintf(w, "## %s\n\n", title)
				if err := codeBlock(w, r, d.Text); err != nil {
					return err
				}
				if note == nil {
					return nil
				}
				return note(w, r)
			}, nil
		}
	}
}

// codeBlock writes render's output as a fenced markdown block.
func codeBlock[R any](w io.Writer, r R, render func(io.Writer, R) error) error {
	fmt.Fprint(w, "```\n")
	if err := render(w, r); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, "```\n\n")
	return err
}

func runReport(s *Scheduler, ts *TraceSet, p Params) func() ([]func(io.Writer) error, error) {
	waits := make([]func() (func(io.Writer) error, error), len(reportSections))
	for i, sec := range reportSections {
		waits[i] = sec(s, ts, p)
	}
	return func() ([]func(io.Writer) error, error) {
		parts := []func(io.Writer) error{func(w io.Writer) error {
			fmt.Fprintf(w, "# Reproduction report — Multiple Branch and Block Prediction (HPCA 1997)\n\n")
			fmt.Fprintf(w, "Workloads: %d programs, %d dynamic instructions each. ", len(ts.Programs()), ts.instructions)
			_, err := fmt.Fprintf(w, "Deterministic: rerunning this command reproduces these numbers exactly.\n\n")
			return err
		}}
		for _, wait := range waits {
			part, err := wait()
			if err != nil {
				return nil, err
			}
			parts = append(parts, part)
		}
		return parts, nil
	}
}

func renderReport(w io.Writer, parts []func(io.Writer) error) error {
	for _, part := range parts {
		if err := part(w); err != nil {
			return err
		}
	}
	return nil
}

func noteFig6(w io.Writer, rows []Fig6Row) error {
	var h10 Fig6Row
	for _, r := range rows {
		if r.History == 10 {
			h10 = r
		}
	}
	_, err := fmt.Fprintf(w, "At h=10 the blocked PHT is %.1f%% accurate on Int (paper: %.1f%%) "+
		"and %.1f%% on FP (paper: %.1f%%); blocked-vs-scalar differs by %+.3f pp Int.\n\n",
		100*(1-h10.BlockedInt), 100*paperdata.Fig6IntAccuracy,
		100*(1-h10.BlockedFP), 100*paperdata.Fig6FPAccuracy, h10.ImproveInt)
	return err
}

func noteFig7(w io.Writer, rows []Fig7Row) error {
	knee := "beyond the sweep"
	for _, r := range rows {
		if r.PctBEPInt < 5 {
			knee = fmt.Sprintf("%d entries", r.Entries)
			break
		}
	}
	_, err := fmt.Fprintf(w, "The Int BIT share of BEP first drops below 5%% at %s (paper: about 2048).\n\n", knee)
	return err
}

func noteFig8(w io.Writer, rows []Fig8Row) error {
	wins := 0
	for _, r := range rows {
		if r.SingleInt > r.DoubleInt {
			wins++
		}
	}
	_, err := fmt.Fprintf(w, "Single selection beats double in %d of %d configurations "+
		"(paper: double loses roughly 10%% in most cases).\n\n", wins, len(rows))
	return err
}

func noteTable6(w io.Writer, _ []Table6Row) error {
	for _, pr := range paperdata.Table6 {
		fmt.Fprintf(w, "paper %-7s Int %.2f/%.2f FP %.2f/%.2f (1blk/2blk)\n",
			pr.Kind+":", pr.IPCf1Int, pr.IPCf2Int, pr.IPCf1FP, pr.IPCf2FP)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// noteFig9 adds the figure's bar chart and names each suite's dominant
// penalty kind.
func noteFig9(w io.Writer, rows []Fig9Row) error {
	if err := codeBlock(w, rows, chartFig9); err != nil {
		return err
	}
	for _, r := range rows {
		if r.Program == "CINT95" || r.Program == "CFP95" {
			top := metrics.Kind(0)
			for k := metrics.Kind(1); k < metrics.NumKinds; k++ {
				if r.ByKind[k] > r.ByKind[top] {
					top = k
				}
			}
			fmt.Fprintf(w, "%s: BEP %.3f, dominated by %s (%.3f).\n", r.Program, r.BEP, top, r.ByKind[top])
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
