package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
)

// The events experiment is the attribution view behind the paper's
// whole evaluation: §4 asks which structure (PHT, BIT, select table,
// target array, RAS, bank conflict) each penalty cycle came from, and
// this driver answers one level deeper — which *block addresses*
// carried those cycles, per Table 3 kind. A few static blocks usually
// dominate a kind (the "hard to predict" observation), so the top-N
// table is the first thing to read when a configuration regresses.

// EventsRow is one program's replay under an enabled tap: its ordinary
// result plus the per-block attribution, read through its per-kind view.
type EventsRow struct {
	Program string
	Res     metrics.Result
	Att     *obs.H2P
}

// DefaultEventsTopN is the per-kind site count the renderers show.
const DefaultEventsTopN = 5

// EventsAsync submits the tapped replay: one attribution accumulator
// per program, installed on the measured run through the trace set's
// observer hook, with the engine runs batched like every other
// experiment. Rows fold in suite order — deterministic like every
// other experiment (taps observe, they never steer).
func EventsAsync(s *Scheduler, ts *TraceSet, cfg core.Config) func() ([]EventsRow, error) {
	atts := make(map[string]*obs.H2P, len(ts.order))
	for _, name := range ts.order {
		atts[name] = obs.NewH2P()
	}
	tsv := ts.WithObserver(func(program string) core.Observer {
		return obs.NewTap(atts[program])
	})
	b := NewBatch(s, tsv)
	p := b.RunConfig(cfg)
	b.Flush()
	return func() ([]EventsRow, error) {
		res, err := p.Wait()
		if err != nil {
			return nil, err
		}
		var rows []EventsRow
		for _, name := range ts.order {
			rows = append(rows, EventsRow{Program: name, Res: res.Per[name], Att: atts[name]})
		}
		return rows, nil
	}
}

// Events runs the events experiment for the default configuration on
// the default scheduler.
func Events(ts *TraceSet) ([]EventsRow, error) {
	return EventsAsync(DefaultScheduler(), ts, core.DefaultConfig())()
}

// RenderEvents writes the per-program attribution tables: for every
// misprediction kind with charges, the topN worst block addresses with
// their event counts, penalty cycles, and share of the kind's total.
func RenderEvents(w io.Writer, rows []EventsRow, topN int) {
	if topN <= 0 {
		topN = DefaultEventsTopN
	}
	fmt.Fprintf(w, "Misprediction attribution: top %d block addresses per penalty kind\n", topN)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\tBEP=%.3f\tpenalty=%d cycles over %d blocks\t\t\n",
			r.Program, r.Res.BEP(), r.Res.TotalPenaltyCycles(), r.Res.Blocks)
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			total := r.Att.KindCycles(k)
			if total == 0 {
				continue
			}
			for i, s := range r.Att.KindTop(k, topN) {
				label := ""
				if i == 0 {
					label = k.String()
				}
				fmt.Fprintf(tw, "  %s\t@%d\tevents=%d\tcycles=%d\t%.1f%%\n",
					label, s.Addr, s.Events, s.Cycles, 100*float64(s.Cycles)/float64(total))
			}
		}
	}
	tw.Flush()
}

// CSVEvents writes the attribution as CSV: one record per (program,
// kind, site) for the topN sites of each kind.
func CSVEvents(w io.Writer, rows []EventsRow, topN int) error {
	if topN <= 0 {
		topN = DefaultEventsTopN
	}
	var out [][]string
	for _, r := range rows {
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			total := r.Att.KindCycles(k)
			if total == 0 {
				continue
			}
			for i, s := range r.Att.KindTop(k, topN) {
				out = append(out, []string{
					r.Program, k.String(), d(i + 1), fmt.Sprintf("%d", s.Addr),
					fmt.Sprintf("%d", s.Events), fmt.Sprintf("%d", s.Cycles),
					fmt.Sprintf("%d", total),
					f(float64(s.Cycles) / float64(total)),
				})
			}
		}
	}
	return writeCSV(w, []string{
		"program", "kind", "rank", "block_addr",
		"events", "cycles", "kind_cycles", "share",
	}, out)
}
