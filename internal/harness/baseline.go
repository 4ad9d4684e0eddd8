package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/bac"
	"mbbp/internal/core"
	"mbbp/internal/metrics"
)

// Baseline runs the comparison the paper's introduction frames: its
// block-based dual fetch with linear-cost select tables against Yeh's
// basic-block-based dual fetch with an exponential-cost branch address
// cache, across BAC sizes.
var Baseline = &Descriptor[[]BaselineRow]{Name: "baseline", Run: runBaseline, Text: renderBaseline}

// BaselineRow compares one fetch scheme at one storage budget.
type BaselineRow struct {
	Scheme          string
	CostKbits       float64
	IPCfInt, IPCfFP float64
	IPBInt, IPBFP   float64
}

// runBaseline submits the introduction's comparison grid: the Yeh
// branch address cache at four sizes (one engine run per program each)
// plus the paper's scheme at its default budget.
func runBaseline(s *Scheduler, ts *TraceSet, _ Params) func() ([]BaselineRow, error) {
	bacEntries := []int{32, 64, 128, 256}
	var bacPromises []*SuitePromise
	for _, entries := range bacEntries {
		cfg := bac.DefaultConfig()
		cfg.Entries = entries
		bacPromises = append(bacPromises, suitePromise(s, ts, func(name string) (metrics.Result, error) {
			e, err := bac.New(cfg)
			if err != nil {
				return metrics.Result{}, err
			}
			return e.Run(ts.traces[name].Clone()), nil
		}))
	}
	b := NewBatch(s, ts)
	paperP := b.RunConfig(core.DefaultConfig())
	b.Flush()

	return func() ([]BaselineRow, error) {
		var rows []BaselineRow
		for i, p := range bacPromises {
			entries := bacEntries[i]
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, BaselineRow{
				Scheme:    fmt.Sprintf("Yeh BAC, %d entries", entries),
				CostKbits: float64(bac.CostBits(entries, 30, 2))/1024 + 16, // + equal-size PHT
				IPCfInt:   res.Int.IPCf(), IPCfFP: res.FP.IPCf(),
				IPBInt: res.Int.IPB(), IPBFP: res.FP.IPB(),
			})
		}

		// The paper's scheme at its default 80 Kbit configuration.
		res, err := paperP.Wait()
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Scheme:    "blocked PHT + select table (paper)",
			CostKbits: 80.3,
			IPCfInt:   res.Int.IPCf(), IPCfFP: res.FP.IPCf(),
			IPBInt: res.Int.IPB(), IPBFP: res.FP.IPB(),
		})
		return rows, nil
	}
}

// renderBaseline writes the scheme comparison.
func renderBaseline(w io.Writer, rows []BaselineRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Baseline: Yeh/Marr/Patt branch address cache vs the paper's scheme (2 blocks/cycle)")
	fmt.Fprintln(tw, "scheme\tcost Kbit\tInt IPC_f\tInt IPB\tFP IPC_f\tFP IPB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Scheme, r.CostKbits, r.IPCfInt, r.IPBInt, r.IPCfFP, r.IPBFP)
	}
	return tw.Flush()
}
