package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"mbbp/internal/core"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
)

// The h2p experiment is the hard-to-predict report ("Branch Prediction
// Is Not a Solved Problem" / Bullseye): rank static blocks by total
// penalty across every Table 3 kind, draw the cumulative-coverage
// curve (what fraction of all penalty the top-N blocks explain), and
// then answer the fix-side question per block — would a different
// history length have helped? The sensitivity sweep re-simulates the
// same captured trace at several history lengths; HistoryBits does not
// touch the cache geometry, so all h-values ride one lane group and
// one trace walk per program does the whole sweep.

// DefaultH2PTopN is the block count shown by default.
const DefaultH2PTopN = 10

// DefaultH2PHistories is the history-length sensitivity grid; the base
// configuration's own history length joins it automatically.
var DefaultH2PHistories = []int{6, 8, 10, 12, 14}

// H2P ranks the default configuration's hard-to-predict blocks and
// sweeps their history-length sensitivity.
var H2P = &Descriptor[H2PResult]{Name: "h2p", Run: runH2P, Text: renderH2P, CSV: csvH2P}

func runH2P(s *Scheduler, ts *TraceSet, p Params) func() (H2PResult, error) {
	return h2pAsync(s, ts, core.DefaultConfig(), p)
}

// H2PResult is the h2p experiment's result: one row per program and
// the number of blocks shown per program.
type H2PResult struct {
	Rows []H2PRow
	TopN int
}

// H2PRow is one program's sweep: the base-history result plus one H2P
// accumulator per history length (Att[BaseH] is the ranking view).
type H2PRow struct {
	Program   string
	Res       metrics.Result // at BaseH
	BaseH     int
	Histories []int // ascending, BaseH included
	Att       map[int]*obs.H2P
}

// H2PBlock is one computed row of the ranked report: a block with its
// base-history attribution, coverage, and sensitivity-sweep verdict.
type H2PBlock struct {
	Addr       uint32
	Events     uint64
	Cycles     uint64
	Kind       metrics.Kind // dominant kind at BaseH
	Share      float64      // of the program's total penalty
	Cum        float64      // cumulative coverage through this rank
	BestH      int          // history length minimizing this block's penalty
	BestCycles uint64
	Delta      uint64 // Cycles - BestCycles (0 when base is already best)
}

// TopBlocks ranks the row's blocks at the base history and folds in the
// sensitivity sweep: per block, the history length that minimizes its
// penalty (ties to the shortest history) and the cycles that change
// would save. n <= 0 means DefaultH2PTopN.
func (r H2PRow) TopBlocks(n int) []H2PBlock {
	if n <= 0 {
		n = DefaultH2PTopN
	}
	base := r.Att[r.BaseH]
	total := base.TotalCycles()
	var cum uint64
	var out []H2PBlock
	for _, s := range base.Top(n) {
		b := H2PBlock{
			Addr: s.Addr, Events: s.Events, Cycles: s.Cycles, Kind: s.Kind,
			BestH: r.BaseH, BestCycles: s.Cycles,
		}
		for _, h := range r.Histories {
			if c := r.Att[h].SiteCycles(s.Addr); c < b.BestCycles {
				b.BestH, b.BestCycles = h, c
			}
		}
		b.Delta = b.Cycles - b.BestCycles
		cum += s.Cycles
		if total > 0 {
			b.Share = float64(s.Cycles) / float64(total)
			b.Cum = float64(cum) / float64(total)
		}
		out = append(out, b)
	}
	return out
}

// ParseHistories parses a comma-separated history-length list ("6,8,12")
// into a sorted, deduplicated grid. An empty string selects the default
// grid; each value must be a positive integer (range validation is the
// config's job and surfaces through the run itself).
func ParseHistories(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return append([]int(nil), DefaultH2PHistories...), nil
	}
	var hs []int
	for _, f := range strings.Split(s, ",") {
		h, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || h < 1 {
			return nil, fmt.Errorf("histories: %q is not a positive integer", strings.TrimSpace(f))
		}
		hs = append(hs, h)
	}
	return normalizeHistories(hs, 0), nil
}

// normalizeHistories sorts, deduplicates, and (when base > 0) inserts
// the base history length.
func normalizeHistories(hs []int, base int) []int {
	set := make(map[int]bool, len(hs)+1)
	for _, h := range hs {
		set[h] = true
	}
	if base > 0 {
		set[base] = true
	}
	out := make([]int, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// h2pAsync submits the H2P sweep over p.Histories (nil =
// DefaultH2PHistories): one configuration per history length (the base
// config with only HistoryBits changed — geometry untouched,
// so the whole grid is one lane group and one trace walk per program),
// each lane tapped into its own per-program H2P accumulator through the
// config-aware observer hook. Rows fold in suite order; like every
// experiment the output is byte-identical across serial, parallel, and
// lane execution (taps observe, they never steer).
func h2pAsync(s *Scheduler, ts *TraceSet, cfg core.Config, p Params) func() (H2PResult, error) {
	if err := cfg.Validate(); err != nil {
		return func() (H2PResult, error) { return H2PResult{}, err }
	}
	histories := p.Histories
	if len(histories) == 0 {
		histories = DefaultH2PHistories
	}
	hs := normalizeHistories(histories, cfg.HistoryBits)
	aggs := make(map[string]map[int]*obs.H2P, len(ts.order))
	for _, name := range ts.order {
		per := make(map[int]*obs.H2P, len(hs))
		for _, h := range hs {
			per[h] = obs.NewH2P()
		}
		aggs[name] = per
	}
	// The nested map is fully built before any job runs; factory calls
	// from concurrent pool workers only read it, and each (program, h)
	// accumulator belongs to exactly one engine run.
	tsv := ts.WithConfigObserver(func(program string, c core.Config) core.Observer {
		return aggs[program][c.HistoryBits]
	})
	b := NewBatch(s, tsv)
	proms := make(map[int]*SuitePromise, len(hs))
	for _, h := range hs {
		c := cfg
		c.HistoryBits = h
		proms[h] = b.RunConfig(c)
	}
	b.Flush()
	return func() (H2PResult, error) {
		base, err := proms[cfg.HistoryBits].Wait()
		if err != nil {
			return H2PResult{}, err
		}
		for _, h := range hs {
			if _, err := proms[h].Wait(); err != nil {
				return H2PResult{}, err
			}
		}
		out := H2PResult{TopN: p.TopN}
		if out.TopN <= 0 {
			out.TopN = DefaultH2PTopN
		}
		for _, name := range ts.order {
			out.Rows = append(out.Rows, H2PRow{
				Program: name, Res: base.Per[name],
				BaseH: cfg.HistoryBits, Histories: hs, Att: aggs[name],
			})
		}
		return out, nil
	}
}

func historiesLabel(hs []int) string {
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = strconv.Itoa(h)
	}
	return strings.Join(parts, ",")
}

// renderH2P writes the per-program hard-to-predict tables: the topN
// worst blocks across all kinds with dominant kind, penalty share,
// cumulative coverage, and the sensitivity-sweep best history length
// with the cycles it would save.
func renderH2P(w io.Writer, hr H2PResult) error {
	var label string
	if len(hr.Rows) > 0 {
		label = historiesLabel(hr.Rows[0].Histories)
	}
	fmt.Fprintf(w, "H2P report: top %d hard-to-predict blocks, history sensitivity h={%s}\n", hr.TopN, label)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range hr.Rows {
		att := r.Att[r.BaseH]
		fmt.Fprintf(tw, "%s\th=%d\tpenalty=%d cycles over %d blocks\tsites=%d\t\t\t\t\n",
			r.Program, r.BaseH, att.TotalCycles(), att.Blocks(), att.Sites())
		fmt.Fprintf(tw, "  #\taddr\tkind\tevents\tcycles\tshare\tcum\tbest-h\tsaves\n")
		for i, b := range r.TopBlocks(hr.TopN) {
			fmt.Fprintf(tw, "  %d\t@%d\t%s\t%d\t%d\t%.1f%%\t%.1f%%\th=%d\t%d\n",
				i+1, b.Addr, b.Kind, b.Events, b.Cycles,
				100*b.Share, 100*b.Cum, b.BestH, b.Delta)
		}
	}
	return tw.Flush()
}

// csvH2P writes the report as CSV: one record per (program, rank).
func csvH2P(w io.Writer, hr H2PResult) error {
	var out [][]string
	for _, r := range hr.Rows {
		total := r.Att[r.BaseH].TotalCycles()
		for i, b := range r.TopBlocks(hr.TopN) {
			out = append(out, []string{
				r.Program, d(i + 1), fmt.Sprintf("%d", b.Addr), b.Kind.String(),
				fmt.Sprintf("%d", b.Events), fmt.Sprintf("%d", b.Cycles),
				fmt.Sprintf("%d", total), f(b.Share), f(b.Cum),
				d(b.BestH), fmt.Sprintf("%d", b.BestCycles), fmt.Sprintf("%d", b.Delta),
			})
		}
	}
	return writeCSV(w, []string{
		"program", "rank", "block_addr", "kind",
		"events", "cycles", "total_cycles", "share", "cum_coverage",
		"best_h", "best_cycles", "delta_cycles",
	}, out)
}
