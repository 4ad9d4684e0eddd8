package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/core"
	"mbbp/internal/cost"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
)

// Fig6 sweeps the branch history length from 6 to 12 (paper Figure 6).
var Fig6 = &Descriptor[[]Fig6Row]{
	Name: "fig6", Run: runFig6, Text: renderFig6, CSV: csvFig6, Chart: chartFig6,
}

// Fig6Row is one history length of Figure 6: blocked-PHT vs equal-size
// scalar conditional misprediction rates.
type Fig6Row struct {
	History               int
	BlockedInt, BlockedFP float64 // misprediction rates
	ScalarInt, ScalarFP   float64
	ImproveInt, ImproveFP float64 // scalar - blocked, percentage points
}

// runFig6 submits the Figure 6 sweep: branch history length 6 to 12,
// blocked PHT and the equal-size scalar baseline per point.
func runFig6(s *Scheduler, ts *TraceSet, _ Params) func() ([]Fig6Row, error) {
	type point struct {
		h               int
		blocked, scalar *SuitePromise
	}
	b := NewBatch(s, ts)
	var pts []point
	for h := 6; h <= 12; h++ {
		cfg := core.DefaultConfig()
		cfg.Mode = core.SingleBlock
		cfg.HistoryBits = h
		pts = append(pts, point{
			h:       h,
			blocked: b.RunConfig(cfg),
			scalar:  RunScalarAsync(s, ts, h, cfg.Geometry.BlockWidth),
		})
	}
	b.Flush()
	return func() ([]Fig6Row, error) {
		var rows []Fig6Row
		for _, p := range pts {
			blocked, err := p.blocked.Wait()
			if err != nil {
				return nil, err
			}
			scalar, err := p.scalar.Wait()
			if err != nil {
				return nil, err
			}
			row := Fig6Row{
				History:    p.h,
				BlockedInt: blocked.Int.CondMispredictRate(),
				BlockedFP:  blocked.FP.CondMispredictRate(),
				ScalarInt:  scalar.Int.CondMispredictRate(),
				ScalarFP:   scalar.FP.CondMispredictRate(),
			}
			row.ImproveInt = 100 * (row.ScalarInt - row.BlockedInt)
			row.ImproveFP = 100 * (row.ScalarFP - row.BlockedFP)
			rows = append(rows, row)
		}
		return rows, nil
	}
}

// renderFig6 writes the Figure 6 series as a table.
func renderFig6(w io.Writer, rows []Fig6Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 6: conditional branch misprediction rate, blocked vs scalar PHT")
	fmt.Fprintln(tw, "hist\tInt blocked%\tInt scalar%\tInt improve(pp)\tFP blocked%\tFP scalar%\tFP improve(pp)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%+.3f\t%.2f\t%.2f\t%+.3f\n",
			r.History, 100*r.BlockedInt, 100*r.ScalarInt, r.ImproveInt,
			100*r.BlockedFP, 100*r.ScalarFP, r.ImproveFP)
	}
	return tw.Flush()
}

// Fig7 sweeps the separate BIT table size with single-block fetching
// (paper Figure 7).
var Fig7 = &Descriptor[[]Fig7Row]{
	Name: "fig7", Run: runFig7, Text: renderFig7, CSV: csvFig7, Chart: chartFig7,
}

// Fig7Row is one BIT size of Figure 7.
type Fig7Row struct {
	Entries             int
	PctBEPInt, PctBEPFP float64 // BIT share of total BEP, percent
	IPCfInt, IPCfFP     float64
}

// runFig7 submits the Figure 7 sweep: separate BIT table sizes with
// single-block fetching.
func runFig7(s *Scheduler, ts *TraceSet, _ Params) func() ([]Fig7Row, error) {
	entries := []int{64, 128, 256, 512, 1024, 2048, 4096}
	b := NewBatch(s, ts)
	var promises []*SuitePromise
	for _, e := range entries {
		cfg := core.DefaultConfig()
		cfg.Mode = core.SingleBlock
		cfg.BITEntries = e
		promises = append(promises, b.RunConfig(cfg))
	}
	b.Flush()
	return func() ([]Fig7Row, error) {
		var rows []Fig7Row
		for i, p := range promises {
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			pct := func(r metrics.Result) float64 {
				if r.BEP() == 0 {
					return 0
				}
				return 100 * r.BEPOf(metrics.BITMispredict) / r.BEP()
			}
			rows = append(rows, Fig7Row{
				Entries:   entries[i],
				PctBEPInt: pct(res.Int), PctBEPFP: pct(res.FP),
				IPCfInt: res.Int.IPCf(), IPCfFP: res.FP.IPCf(),
			})
		}
		return rows, nil
	}
}

// renderFig7 writes the Figure 7 series.
func renderFig7(w io.Writer, rows []Fig7Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 7: BIT table size vs BEP contribution and fetch rate (single block)")
	fmt.Fprintln(tw, "BIT entries\tInt %BEP(BIT)\tInt IPC_f\tFP %BEP(BIT)\tFP IPC_f")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.2f\t%.1f\t%.2f\n",
			r.Entries, r.PctBEPInt, r.IPCfInt, r.PctBEPFP, r.IPCfFP)
	}
	return tw.Flush()
}

// Fig8 sweeps history length 9-12 and select-table count 1-8 for single
// and double selection, dual-block fetching (paper Figure 8).
var Fig8 = &Descriptor[[]Fig8Row]{
	Name: "fig8", Run: runFig8, Text: renderFig8, CSV: csvFig8, Chart: chartFig8,
}

// Fig8Row is one (history, #STs) point of Figure 8 for both selection
// modes.
type Fig8Row struct {
	History, STs        int
	SingleInt, SingleFP float64 // IPC_f
	DoubleInt, DoubleFP float64
}

// runFig8 submits the Figure 8 grid: history length 9-12 × select
// table count 1-8 × both selection modes — 32 configurations, each
// fanned out per program.
func runFig8(s *Scheduler, ts *TraceSet, _ Params) func() ([]Fig8Row, error) {
	type point struct {
		h, sts         int
		single, double *SuitePromise
	}
	b := NewBatch(s, ts)
	var pts []point
	for h := 9; h <= 12; h++ {
		for _, sts := range []int{1, 2, 4, 8} {
			p := point{h: h, sts: sts}
			for _, sel := range []metrics.SelectionMode{metrics.SingleSelection, metrics.DoubleSelection} {
				cfg := core.DefaultConfig()
				cfg.HistoryBits = h
				cfg.NumSTs = sts
				cfg.Selection = sel
				if sel == metrics.SingleSelection {
					p.single = b.RunConfig(cfg)
				} else {
					p.double = b.RunConfig(cfg)
				}
			}
			pts = append(pts, p)
		}
	}
	b.Flush()
	return func() ([]Fig8Row, error) {
		var rows []Fig8Row
		for _, p := range pts {
			single, err := p.single.Wait()
			if err != nil {
				return nil, err
			}
			double, err := p.double.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{
				History: p.h, STs: p.sts,
				SingleInt: single.Int.IPCf(), SingleFP: single.FP.IPCf(),
				DoubleInt: double.Int.IPCf(), DoubleFP: double.FP.IPCf(),
			})
		}
		return rows, nil
	}
}

// renderFig8 writes the Figure 8 series.
func renderFig8(w io.Writer, rows []Fig8Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 8: IPC_f for single vs double selection (dual block)")
	fmt.Fprintln(tw, "hist/STs\tInt single\tInt double\tFP single\tFP double")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d/%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.History, r.STs, r.SingleInt, r.DoubleInt, r.SingleFP, r.DoubleFP)
	}
	return tw.Flush()
}

// Table5 sweeps target array configurations over the integer suite
// (paper Table 5): a 4-way BTB with 8-64 block entries and an NLS with
// 64-512 block entries, each with and without near-block encoding.
var Table5 = &Descriptor[[]Table5Row]{
	Name: "table5", Run: runTable5, Text: renderTable5, CSV: csvTable5,
}

// Table5Row is one target-array configuration of Table 5 (SPECint95).
type Table5Row struct {
	Kind      core.TargetArrayKind
	Entries   int
	NearBlock bool
	PctBEPImm float64
	PctBEPInd float64
	BEP       float64
	IPCf      float64
}

// runTable5 submits the Table 5 sweep: BTB 8-64 and NLS 64-512 block
// entries, each with and without near-block encoding.
func runTable5(s *Scheduler, ts *TraceSet, _ Params) func() ([]Table5Row, error) {
	type point struct {
		kind    core.TargetArrayKind
		entries int
		near    bool
		promise *SuitePromise
	}
	b := NewBatch(s, ts)
	var pts []point
	add := func(kind core.TargetArrayKind, entries int) {
		for _, near := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.TargetArray = kind
			cfg.TargetEntries = entries
			cfg.NearBlock = near
			pts = append(pts, point{kind, entries, near, b.RunConfig(cfg)})
		}
	}
	for _, e := range []int{8, 16, 32, 64} {
		add(core.BTB, e)
	}
	for _, e := range []int{64, 128, 256, 512} {
		add(core.NLS, e)
	}
	b.Flush()
	return func() ([]Table5Row, error) {
		var rows []Table5Row
		for _, p := range pts {
			res, err := p.promise.Wait()
			if err != nil {
				return nil, err
			}
			r := res.Int
			bep := r.BEP()
			pct := func(k metrics.Kind) float64 {
				if bep == 0 {
					return 0
				}
				return 100 * r.BEPOf(k) / bep
			}
			rows = append(rows, Table5Row{
				Kind: p.kind, Entries: p.entries, NearBlock: p.near,
				PctBEPImm: pct(metrics.MisfetchImmediate),
				PctBEPInd: pct(metrics.MisfetchIndirect),
				BEP:       bep,
				IPCf:      r.IPCf(),
			})
		}
		return rows, nil
	}
}

// renderTable5 writes Table 5.
func renderTable5(w io.Writer, rows []Table5Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 5: indirect and immediate misfetch penalty, SPECint95 (dual block)")
	fmt.Fprintln(tw, "type\t# blk entries\tnear-block\t%BEP imm\t%BEP ind\tBEP\tIPC_f")
	for _, r := range rows {
		near := "no"
		if r.NearBlock {
			near = "yes"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.1f\t%.1f\t%.3f\t%.2f\n",
			r.Kind, r.Entries, near, r.PctBEPImm, r.PctBEPInd, r.BEP, r.IPCf)
	}
	return tw.Flush()
}

// Table6 compares the normal, extended and self-aligned caches with one
// and two block fetching (paper Table 6: 8 STs, history length 10).
var Table6 = &Descriptor[[]Table6Row]{
	Name: "table6", Run: runTable6, Text: renderTable6, CSV: csvTable6,
}

// Table6Row is one cache organization of Table 6.
type Table6Row struct {
	Kind              icache.Kind
	LineSize, Banks   int
	IPBInt, IPBFP     float64
	IPCf1Int, IPCf1FP float64 // single block
	IPCf2Int, IPCf2FP float64 // dual block
}

// runTable6 submits the Table 6 grid: normal, extended and
// self-aligned caches × one- and two-block fetching.
func runTable6(s *Scheduler, ts *TraceSet, _ Params) func() ([]Table6Row, error) {
	type point struct {
		kind     icache.Kind
		geom     icache.Geometry
		one, two *SuitePromise
	}
	b := NewBatch(s, ts)
	var pts []point
	for _, kind := range []icache.Kind{icache.Normal, icache.Extended, icache.SelfAligned} {
		geom := icache.ForKind(kind, 8)
		p := point{kind: kind, geom: geom}
		for _, mode := range []core.FetchMode{core.SingleBlock, core.DualBlock} {
			cfg := core.DefaultConfig()
			cfg.Geometry = geom
			cfg.Mode = mode
			cfg.NumSTs = 8
			if mode == core.SingleBlock {
				p.one = b.RunConfig(cfg)
			} else {
				p.two = b.RunConfig(cfg)
			}
		}
		pts = append(pts, p)
	}
	b.Flush()
	return func() ([]Table6Row, error) {
		var rows []Table6Row
		for _, p := range pts {
			one, err := p.one.Wait()
			if err != nil {
				return nil, err
			}
			two, err := p.two.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table6Row{
				Kind: p.kind, LineSize: p.geom.LineSize, Banks: p.geom.Banks,
				IPBInt: one.Int.IPB(), IPBFP: one.FP.IPB(),
				IPCf1Int: one.Int.IPCf(), IPCf1FP: one.FP.IPCf(),
				IPCf2Int: two.Int.IPCf(), IPCf2FP: two.FP.IPCf(),
			})
		}
		return rows, nil
	}
}

// renderTable6 writes Table 6.
func renderTable6(w io.Writer, rows []Table6Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table 6: instructions per block and IPC_f by cache type (8 STs, h=10)")
	fmt.Fprintln(tw, "cache\tline\tbanks\tInt IPB\tInt 1blk\tInt 2blk\tFP IPB\tFP 1blk\tFP 2blk")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Kind, r.LineSize, r.Banks,
			r.IPBInt, r.IPCf1Int, r.IPCf2Int,
			r.IPBFP, r.IPCf1FP, r.IPCf2FP)
	}
	return tw.Flush()
}

// Fig9 computes the per-program BEP breakdown for two-block single
// selection with a self-aligned cache, 8 STs, history length 10 (paper
// Figure 9).
var Fig9 = &Descriptor[[]Fig9Row]{
	Name: "fig9", Run: runFig9, Text: renderFig9, CSV: csvFig9, Chart: chartFig9,
}

// Fig9Row is one program's BEP breakdown (paper Figure 9).
type Fig9Row struct {
	Program string
	Suite   string
	BEP     float64
	ByKind  [metrics.NumKinds]float64
}

// runFig9 submits the Figure 9 configuration (two-block single
// selection, self-aligned cache, 8 STs, history length 10) — a single
// configuration whose parallelism is the per-program fan-out.
func runFig9(s *Scheduler, ts *TraceSet, _ Params) func() ([]Fig9Row, error) {
	cfg := core.DefaultConfig()
	cfg.Geometry = icache.ForKind(icache.SelfAligned, 8)
	cfg.NumSTs = 8
	b := NewBatch(s, ts)
	promise := b.RunConfig(cfg)
	b.Flush()
	return func() ([]Fig9Row, error) {
		res, err := promise.Wait()
		if err != nil {
			return nil, err
		}
		var rows []Fig9Row
		for _, name := range ts.Programs() {
			r := res.Per[name]
			row := Fig9Row{Program: name, Suite: ts.Suite(name).String(), BEP: r.BEP()}
			for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
				row.ByKind[k] = r.BEPOf(k)
			}
			rows = append(rows, row)
		}
		// Suite aggregates, as the paper's CINT95/CFP95 bars.
		for _, agg := range []metrics.Result{res.Int, res.FP} {
			row := Fig9Row{Program: agg.Program, Suite: agg.Program, BEP: agg.BEP()}
			for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
				row.ByKind[k] = agg.BEPOf(k)
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
}

// renderFig9 writes the Figure 9 stacked breakdown.
func renderFig9(w io.Writer, rows []Fig9Row) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 9: BEP by misprediction type (two block, single selection, self-aligned)")
	fmt.Fprint(tw, "program\tBEP")
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		fmt.Fprintf(tw, "\t%s", k)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f", r.Program, r.BEP)
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			fmt.Fprintf(tw, "\t%.3f", r.ByKind[k])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Cost is the §5 cost walkthrough for the paper's default
// configuration: first the Table 7 closed forms, then the same
// accounting measured from live engines' structures (Engine.StateBits)
// — the path the sweep tooling uses to print hardware-cost rows for
// arbitrary configurations. It simulates nothing.
var Cost = &Descriptor[struct{}]{Name: "cost", Text: renderCost}

func renderCost(w io.Writer, _ struct{}) error {
	est := cost.PaperDefault()
	fmt.Fprintln(w, "Section 5: simplified hardware cost estimates (paper defaults)")
	fmt.Fprintf(w, "  PHT: %6.1f Kbits\n", kbits(est.PHT))
	fmt.Fprintf(w, "  ST:  %6.1f Kbits\n", kbits(est.ST))
	fmt.Fprintf(w, "  NLS: %6.1f Kbits\n", kbits(est.NLS))
	fmt.Fprintf(w, "  BIT: %6.1f Kbits\n", kbits(est.BIT))
	fmt.Fprintf(w, "  BBR: %6.1f Kbits\n", kbits(est.BBR))
	fmt.Fprintf(w, "  single block total:             %6.1f Kbits\n", kbits(est.SingleBlockTotal()))
	fmt.Fprintf(w, "  dual block, single select total: %5.1f Kbits\n", kbits(est.DualSingleTotal()))
	fmt.Fprintf(w, "  dual block, double select total: %5.1f Kbits\n", kbits(est.DualDoubleTotal()))

	single := core.DefaultConfig()
	single.Mode = core.SingleBlock
	single.BITEntries = cost.PaperParams().BITEntries
	double := core.DefaultConfig()
	double.Selection = metrics.DoubleSelection
	fmt.Fprintln(w, "Measured from live engine structures (Engine.StateBits):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  config\tPHT\tST\tBIT\ttargets\ttotal (Kbits)")
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"single block", single},
		{"dual, single select", core.DefaultConfig()},
		{"dual, double select", double},
	} {
		eng, err := core.New(c.cfg)
		if err != nil {
			fmt.Fprintf(tw, "  %s\t%v\n", c.name, err)
			continue
		}
		s := eng.StateBits()
		fmt.Fprintf(tw, "  %s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			c.name, kbits(s.PHT), kbits(s.SelectTable), kbits(s.BIT),
			kbits(s.TargetArray), kbits(s.Total()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "  (BBR registers live outside the modeled tables; dual rows keep the BIT in-cache)")
	return err
}

func kbits(bits int) float64 { return float64(bits) / 1024 }
