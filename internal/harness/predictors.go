package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/core"
)

// The predictor-strategy comparison: the paper's blocked PHT against a
// second strategy family (TAGE), each swept over a storage ladder on
// the single-block engine so direction prediction is isolated from
// multi-block selection effects. Every row reports accuracy alongside
// the strategy's measured Table-7 direction-storage cost (the live
// engine's StateBits().PHT — no hand-derived formulas), so the table
// reads as accuracy-per-bit. All configurations share one cache
// geometry, so the whole grid runs as one mixed-predictor lane group.

// PredictorRow is one configuration of the strategy comparison.
type PredictorRow struct {
	// Predictor is the strategy's canonical name ("paper", "tage").
	Predictor string
	// Label describes the swept parameters of this rung.
	Label string
	// IntAcc and FPAcc are conditional accuracies per workload half.
	IntAcc, FPAcc float64
	// DirKbits is the direction predictor's storage in Kbits, measured
	// from a live engine.
	DirKbits float64
	// IntAccPerKbit is the Int accuracy-per-storage figure of merit
	// (percentage points per Kbit).
	IntAccPerKbit float64
}

// predictorGrid returns the comparison ladder for the paper strategy
// versus the given second family.
func predictorGrid(kind core.PredictorKind) []core.Config {
	var cfgs []core.Config
	for _, h := range []int{8, 10, 12, 14} {
		cfg := core.DefaultConfig()
		cfg.Mode = core.SingleBlock
		cfg.HistoryBits = h
		cfgs = append(cfgs, cfg)
	}
	if kind == core.PredictorTAGE {
		for _, tb := range []int{6, 7, 8, 9} {
			cfg := core.DefaultConfig()
			cfg.Mode = core.SingleBlock
			cfg.Predictor = core.PredictorTAGE
			cfg.TAGE.TableBits = tb
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// predictorRowLabel describes one rung's swept parameter.
func predictorRowLabel(cfg core.Config) string {
	if cfg.Predictor == core.PredictorTAGE {
		t := cfg.EffectiveTAGE()
		return fmt.Sprintf("%dx2^%d tag%d h%d-%d", t.Tables, t.TableBits,
			t.TagBits, t.MinHistory, t.MaxHistory)
	}
	return fmt.Sprintf("h=%d", cfg.HistoryBits)
}

// ComparePredictorsAsync submits the strategy-comparison grid. The
// returned wait function yields one row per configuration, paper rungs
// first.
func ComparePredictorsAsync(s *Scheduler, ts *TraceSet, kind core.PredictorKind) func() ([]PredictorRow, error) {
	cfgs := predictorGrid(kind)
	b := NewBatch(s, ts)
	var promises []*SuitePromise
	for _, cfg := range cfgs {
		promises = append(promises, b.RunConfig(cfg))
	}
	b.Flush()
	return func() ([]PredictorRow, error) {
		var rows []PredictorRow
		for i, p := range promises {
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			// Direction-storage cost, measured from a live engine of
			// this exact configuration.
			eng, err := core.New(cfgs[i])
			if err != nil {
				return nil, err
			}
			kbits := float64(eng.StateBits().PHT) / 1024
			row := PredictorRow{
				Predictor: cfgs[i].Predictor.String(),
				Label:     predictorRowLabel(cfgs[i]),
				IntAcc:    res.Int.CondAccuracy(),
				FPAcc:     res.FP.CondAccuracy(),
				DirKbits:  kbits,
			}
			if kbits > 0 {
				row.IntAccPerKbit = 100 * row.IntAcc / kbits
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
}

// ComparePredictors runs the comparison on the default scheduler.
func ComparePredictors(ts *TraceSet, kind core.PredictorKind) ([]PredictorRow, error) {
	return ComparePredictorsAsync(DefaultScheduler(), ts, kind)()
}

// RenderPredictors writes the accuracy-per-bit comparison table.
func RenderPredictors(w io.Writer, rows []PredictorRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Predictor strategies: accuracy per direction-storage bit (single block)")
	fmt.Fprintln(tw, "predictor\tconfig\tInt acc%\tFP acc%\tdir Kbit\tInt acc%/Kbit")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.1f\t%.2f\n",
			r.Predictor, r.Label, 100*r.IntAcc, 100*r.FPAcc, r.DirKbits, r.IntAccPerKbit)
	}
	tw.Flush()
}

// CSVPredictors writes the comparison as CSV.
func CSVPredictors(w io.Writer, rows []PredictorRow) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Predictor, r.Label,
			f(100 * r.IntAcc), f(100 * r.FPAcc),
			f(r.DirKbits), f(r.IntAccPerKbit),
		})
	}
	return writeCSV(w, []string{
		"predictor", "config", "int_acc_pct", "fp_acc_pct",
		"dir_kbits", "int_acc_per_kbit",
	}, out)
}
