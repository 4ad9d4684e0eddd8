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

// Events replays every program under an engine event tap and attributes
// each penalty kind's cycles to the block addresses that carried them.
var Events = &Descriptor[EventsResult]{Name: "events", Run: runEvents, Text: renderEvents, CSV: csvEvents}

// EventsResult is the events experiment's result: one row per program
// and the number of block addresses shown per kind.
type EventsResult struct {
	Rows []EventsRow
	TopN int
}

// EventsRow is one program's replay under an enabled tap: its ordinary
// result plus the per-block attribution, read through its per-kind view.
type EventsRow struct {
	Program string
	Res     metrics.Result
	Att     *obs.H2P
}

// DefaultEventsTopN is the per-kind site count shown by default.
const DefaultEventsTopN = 5

// runEvents submits the tapped replay of the default configuration: one
// attribution accumulator per program, installed on the measured run
// through the trace set's observer hook, with the engine runs batched
// like every other experiment. Rows fold in suite order — deterministic
// like every other experiment (taps observe, they never steer).
func runEvents(s *Scheduler, ts *TraceSet, p Params) func() (EventsResult, error) {
	atts := make(map[string]*obs.H2P, len(ts.order))
	for _, name := range ts.order {
		atts[name] = obs.NewH2P()
	}
	tsv := ts.WithObserver(func(program string) core.Observer {
		return obs.NewTap(atts[program])
	})
	b := NewBatch(s, tsv)
	promise := b.RunConfig(core.DefaultConfig())
	b.Flush()
	return func() (EventsResult, error) {
		res, err := promise.Wait()
		if err != nil {
			return EventsResult{}, err
		}
		out := EventsResult{TopN: p.TopN}
		if out.TopN <= 0 {
			out.TopN = DefaultEventsTopN
		}
		for _, name := range ts.order {
			out.Rows = append(out.Rows, EventsRow{Program: name, Res: res.Per[name], Att: atts[name]})
		}
		return out, nil
	}
}

// renderEvents writes the per-program attribution tables: for every
// misprediction kind with charges, the topN worst block addresses with
// their event counts, penalty cycles, and share of the kind's total.
func renderEvents(w io.Writer, er EventsResult) error {
	fmt.Fprintf(w, "Misprediction attribution: top %d block addresses per penalty kind\n", er.TopN)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range er.Rows {
		fmt.Fprintf(tw, "%s\tBEP=%.3f\tpenalty=%d cycles over %d blocks\t\t\n",
			r.Program, r.Res.BEP(), r.Res.TotalPenaltyCycles(), r.Res.Blocks)
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			total := r.Att.KindCycles(k)
			if total == 0 {
				continue
			}
			for i, s := range r.Att.KindTop(k, er.TopN) {
				label := ""
				if i == 0 {
					label = k.String()
				}
				fmt.Fprintf(tw, "  %s\t@%d\tevents=%d\tcycles=%d\t%.1f%%\n",
					label, s.Addr, s.Events, s.Cycles, 100*float64(s.Cycles)/float64(total))
			}
		}
	}
	return tw.Flush()
}

// csvEvents writes the attribution as CSV: one record per (program,
// kind, site) for the topN sites of each kind.
func csvEvents(w io.Writer, er EventsResult) error {
	var out [][]string
	for _, r := range er.Rows {
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			total := r.Att.KindCycles(k)
			if total == 0 {
				continue
			}
			for i, s := range r.Att.KindTop(k, er.TopN) {
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
