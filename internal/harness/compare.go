package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/bitable"
	"mbbp/internal/core"
	"mbbp/internal/cost"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/paperdata"
)

// Comparison holds paper-vs-measured values for the headline claims.
type Comparison struct {
	// Figure 6 accuracies at history length 10.
	IntAccuracy, FPAccuracy float64
	// Dual-over-single IPC_f ratios (Table 6 deltas).
	DualRatioInt, DualRatioFP float64
	// Self-aligned dual-block FP IPC_f and whole-suite IPC_f.
	AlignFPIPCf, SuiteIPCf float64
	// Double-selection loss relative to single selection (Int, 8 STs,
	// h=10).
	DoubleLoss float64
	// Fraction of executed conditional branches with near-block
	// targets.
	NearShare float64
	// Cost totals.
	CostSingle, CostDualSingle, CostDualDouble float64
}

// Compare measures every headline claim of the paper on the trace set.
var Compare = &Descriptor[*Comparison]{Name: "compare", Run: runCompare, Text: renderCompare}

// runCompare submits every headline-claim configuration (five RunConfig
// grids plus the near-block trace scan) at once.
func runCompare(s *Scheduler, ts *TraceSet, _ Params) func() (*Comparison, error) {
	b := NewBatch(s, ts)

	// Accuracy at the paper's default configuration.
	base := core.DefaultConfig()
	base.Mode = core.SingleBlock
	accP := b.RunConfig(base)

	// Table 6 normal-cache single vs dual with 8 STs.
	one := core.DefaultConfig()
	one.Mode = core.SingleBlock
	one.NumSTs = 8
	r1P := b.RunConfig(one)
	two := core.DefaultConfig()
	two.NumSTs = 8
	r2P := b.RunConfig(two)

	// Self-aligned dual block (its own lane group — different geometry).
	al := core.DefaultConfig()
	al.Geometry = icache.ForKind(icache.SelfAligned, 8)
	al.NumSTs = 8
	raP := b.RunConfig(al)

	// Double selection loss.
	ds := core.DefaultConfig()
	ds.NumSTs = 8
	ds.Selection = metrics.DoubleSelection
	rdP := b.RunConfig(ds)
	b.Flush()

	// Near-block share over the whole suite: a pure trace scan, one job
	// per program.
	nearP := suitePromise(s, ts, func(name string) (metrics.Result, error) {
		// Runs fold no conditional branch: scan the stored records.
		recs, _ := ts.traces[name].Clone().Rest()
		var cond, near uint64
		for _, r := range recs {
			if r.Class() != isa.ClassCond {
				continue
			}
			cond++
			if bitable.Encode(r.Class(), r.PC(), r.Target(), 8, true).IsNear() {
				near++
			}
		}
		// Smuggle the two counters through the Result fold: Add sums
		// CondBranches and CondMispredicts fields exactly.
		return metrics.Result{CondBranches: cond, CondMispredicts: near}, nil
	})

	return func() (*Comparison, error) {
		c := &Comparison{}
		acc, err := accP.Wait()
		if err != nil {
			return nil, err
		}
		c.IntAccuracy = acc.Int.CondAccuracy()
		c.FPAccuracy = acc.FP.CondAccuracy()

		r1, err := r1P.Wait()
		if err != nil {
			return nil, err
		}
		r2, err := r2P.Wait()
		if err != nil {
			return nil, err
		}
		if r1.Int.IPCf() > 0 {
			c.DualRatioInt = r2.Int.IPCf() / r1.Int.IPCf()
		}
		if r1.FP.IPCf() > 0 {
			c.DualRatioFP = r2.FP.IPCf() / r1.FP.IPCf()
		}

		ra, err := raP.Wait()
		if err != nil {
			return nil, err
		}
		c.AlignFPIPCf = ra.FP.IPCf()
		// The paper's "averages over 8 IPC_f for the entire SPEC95 suite"
		// weighs programs equally (their Int 6.42 and FP 10.88 average to
		// 8.65), so do the same.
		var sum float64
		for _, name := range ts.Programs() {
			r := ra.Per[name]
			sum += r.IPCf()
		}
		if len(ts.Programs()) > 0 {
			c.SuiteIPCf = sum / float64(len(ts.Programs()))
		}

		rd, err := rdP.Wait()
		if err != nil {
			return nil, err
		}
		if r2.Int.IPCf() > 0 {
			c.DoubleLoss = 1 - rd.Int.IPCf()/r2.Int.IPCf()
		}

		nr, err := nearP.Wait()
		if err != nil {
			return nil, err
		}
		cond := nr.Int.CondBranches + nr.FP.CondBranches
		near := nr.Int.CondMispredicts + nr.FP.CondMispredicts
		if cond > 0 {
			c.NearShare = float64(near) / float64(cond)
		}

		// Cost model.
		est := cost.PaperDefault()
		c.CostSingle = float64(est.SingleBlockTotal()) / 1024
		c.CostDualSingle = float64(est.DualSingleTotal()) / 1024
		c.CostDualDouble = float64(est.DualDoubleTotal()) / 1024
		return c, nil
	}
}

// renderCompare writes the paper-vs-measured table.
func renderCompare(w io.Writer, c *Comparison) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Headline claims: paper vs this reproduction")
	fmt.Fprintln(tw, "claim\tpaper\tmeasured")
	fmt.Fprintf(tw, "Int conditional accuracy (h=10)\t%.1f%%\t%.1f%%\n",
		100*paperdata.Fig6IntAccuracy, 100*c.IntAccuracy)
	fmt.Fprintf(tw, "FP conditional accuracy (h=10)\t%.1f%%\t%.1f%%\n",
		100*paperdata.Fig6FPAccuracy, 100*c.FPAccuracy)
	fmt.Fprintf(tw, "dual/single IPC_f ratio, Int\t%.2fx\t%.2fx\n",
		paperdata.DualOverSingleInt, c.DualRatioInt)
	fmt.Fprintf(tw, "dual/single IPC_f ratio, FP\t%.2fx\t%.2fx\n",
		paperdata.DualOverSingleFP, c.DualRatioFP)
	fmt.Fprintf(tw, "self-aligned FP IPC_f (2 blk)\t%.1f\t%.1f\n",
		paperdata.SelfAlignedFPIPCf, c.AlignFPIPCf)
	fmt.Fprintf(tw, "whole-suite IPC_f (2 blk, aligned)\t>= %.1f\t%.1f\n",
		paperdata.SuiteIPCf, c.SuiteIPCf)
	fmt.Fprintf(tw, "double-selection loss, Int\t~%.0f%%\t%.0f%%\n",
		100*paperdata.DoubleSelectionLoss, 100*c.DoubleLoss)
	fmt.Fprintf(tw, "near-block share of cond branches\t~%.0f%%\t%.0f%%\n",
		100*paperdata.NearBlockShare, 100*c.NearShare)
	fmt.Fprintf(tw, "cost: single block\t%.0f Kbit\t%.1f Kbit\n",
		float64(paperdata.CostSingleKbits), c.CostSingle)
	fmt.Fprintf(tw, "cost: dual, single select\t%.0f Kbit\t%.1f Kbit\n",
		float64(paperdata.CostDualSingleKbits), c.CostDualSingle)
	fmt.Fprintf(tw, "cost: dual, double select\t%.0f Kbit\t%.1f Kbit\n",
		float64(paperdata.CostDualDoubleKbits), c.CostDualDouble)
	return tw.Flush()
}
