package harness

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"mbbp/internal/core"
	"mbbp/internal/icache"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// Seeds re-runs the default configuration over the suite with the
// workload generators' pseudo-random seeds replaced, checking that the
// reported numbers are properties of program *structure*, not of one
// particular input stream. (The FP kernels are deterministic; their
// variation comes only from wave5's particle placement.) It captures
// its own traces under Params.Options and ignores the trace set.
var Seeds = &Descriptor[[]SeedsRow]{Name: "seeds", Run: runSeeds, Text: renderSeeds}

func runSeeds(s *Scheduler, _ *TraceSet, p Params) func() ([]SeedsRow, error) {
	return seedsAsync(s, p.Options, nil)
}

// SeedsRow reports one random seed's suite results.
type SeedsRow struct {
	Seed            int64
	IPCfInt, IPCfFP float64
	MispIntPct      float64
}

// seedsAsync submits the robustness sweep over seeds (nil = the five
// default seeds): every (seed × program) trace capture is one job, and
// each seed's suite run fans out per program as soon as its traces are
// collected. Capture for later seeds overlaps the simulation of earlier
// ones.
func seedsAsync(s *Scheduler, o Options, seeds []int64) func() ([]SeedsRow, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 20261, 777321, 90125, 443556689}
	}
	type capture struct {
		tr    *trace.Buffer
		suite workload.Suite
	}
	futs := make([][]*Future[capture], len(seeds))
	for i, seed := range seeds {
		seed := seed
		for _, name := range o.programs() {
			name := name
			futs[i] = append(futs[i], Submit(s, func() (capture, error) {
				b, err := workload.Get(name)
				if err != nil {
					return capture{}, err
				}
				tr, err := b.TraceSeeded(o.instructions(), seed)
				if err != nil {
					return capture{}, err
				}
				return capture{tr, b.Suite}, nil
			}))
		}
	}
	return func() ([]SeedsRow, error) {
		var rows []SeedsRow
		for i, seed := range seeds {
			ts := newTraceSet(o)
			for j, name := range o.programs() {
				c, err := futs[i][j].Wait()
				if err != nil {
					return nil, err
				}
				ts.order = append(ts.order, name)
				ts.traces[name] = c.tr
				ts.suites[name] = c.suite
			}
			b := NewBatch(s, ts)
			p := b.RunConfig(core.DefaultConfig())
			b.Flush()
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, SeedsRow{
				Seed:       seed,
				IPCfInt:    res.Int.IPCf(),
				IPCfFP:     res.FP.IPCf(),
				MispIntPct: 100 * res.Int.CondMispredictRate(),
			})
		}
		return rows, nil
	}
}

// SeedSpread summarizes the rows: mean and max relative deviation of
// the integer IPC_f.
func SeedSpread(rows []SeedsRow) (mean, maxRelDev float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		mean += r.IPCfInt
	}
	mean /= float64(len(rows))
	for _, r := range rows {
		if d := math.Abs(r.IPCfInt-mean) / mean; d > maxRelDev {
			maxRelDev = d
		}
	}
	return mean, maxRelDev
}

// renderSeeds writes the robustness table.
func renderSeeds(w io.Writer, rows []SeedsRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Robustness: default configuration across workload input seeds")
	fmt.Fprintln(tw, "seed\tInt IPC_f\tFP IPC_f\tInt misp%")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\n", r.Seed, r.IPCfInt, r.IPCfFP, r.MispIntPct)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	mean, dev := SeedSpread(rows)
	_, err := fmt.Fprintf(w, "Int IPC_f mean %.2f, max deviation %.1f%%\n", mean, 100*dev)
	return err
}

// Widths sweeps the block width — §4's remark that "a simpler
// configuration ... would be to use two blocks of four instructions
// each", which "would still yield an excellent fetching rate".
var Widths = &Descriptor[[]WidthsRow]{Name: "widths", Run: runWidths, Text: renderWidths}

// WidthsRow is one (block width, blocks per cycle) point.
type WidthsRow struct {
	Width, Blocks   int
	IPCfInt, IPCfFP float64
	IPBInt          float64
}

// runWidths submits the block-width sweep grid.
func runWidths(s *Scheduler, ts *TraceSet, _ Params) func() ([]WidthsRow, error) {
	type point struct {
		width, blocks int
		promise       *SuitePromise
	}
	b := NewBatch(s, ts)
	var pts []point
	for _, w := range []int{4, 8, 16} {
		for _, blocks := range []int{1, 2} {
			cfg := core.DefaultConfig()
			cfg.Geometry = icache.ForKind(icache.Normal, w)
			if blocks == 1 {
				cfg.Mode = core.SingleBlock
			}
			pts = append(pts, point{w, blocks, b.RunConfig(cfg)})
		}
	}
	b.Flush()
	return func() ([]WidthsRow, error) {
		var rows []WidthsRow
		for _, p := range pts {
			res, err := p.promise.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, WidthsRow{
				Width: p.width, Blocks: p.blocks,
				IPCfInt: res.Int.IPCf(), IPCfFP: res.FP.IPCf(),
				IPBInt: res.Int.IPB(),
			})
		}
		return rows, nil
	}
}

// ICache sweeps the optional finite instruction cache (an extension —
// the paper assumes a perfect one): how small the cache must get before
// fetch-prediction gains drown in miss stalls.
var ICache = &Descriptor[[]ICacheRow]{Name: "icache", Run: runICache, Text: renderICache}

// ICacheRow is one finite-instruction-cache point.
type ICacheRow struct {
	Lines           int // 0 = perfect
	IPCfInt, IPCfFP float64
	MissPerKInt     float64 // misses per 1000 instructions, Int suite
}

// runICache submits the finite-instruction-cache sweep.
func runICache(s *Scheduler, ts *TraceSet, _ Params) func() ([]ICacheRow, error) {
	sizes := []int{0, 32, 64, 128, 256, 1024}
	b := NewBatch(s, ts)
	var promises []*SuitePromise
	for _, lines := range sizes {
		cfg := core.DefaultConfig()
		if lines > 0 {
			cfg.ICacheLines = lines
			cfg.ICacheAssoc = 2
			cfg.ICacheMissPenalty = 10
		}
		promises = append(promises, b.RunConfig(cfg))
	}
	b.Flush()
	return func() ([]ICacheRow, error) {
		var rows []ICacheRow
		for i, p := range promises {
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			row := ICacheRow{Lines: sizes[i], IPCfInt: res.Int.IPCf(), IPCfFP: res.FP.IPCf()}
			if res.Int.Instructions > 0 {
				row.MissPerKInt = 1000 * float64(res.Int.ICacheMisses) / float64(res.Int.Instructions)
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
}

// renderICache writes the finite-cache sweep.
func renderICache(w io.Writer, rows []ICacheRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Extension: finite instruction cache (2-way, 10-cycle miss; 0 = perfect)")
	fmt.Fprintln(tw, "lines\tInt IPC_f\tFP IPC_f\tInt misses/kinstr")
	for _, r := range rows {
		name := fmt.Sprintf("%d", r.Lines)
		if r.Lines == 0 {
			name = "perfect"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", name, r.IPCfInt, r.IPCfFP, r.MissPerKInt)
	}
	return tw.Flush()
}

// renderWidths writes the width sweep.
func renderWidths(w io.Writer, rows []WidthsRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Block width sweep (normal cache): two narrow blocks vs one wide block")
	fmt.Fprintln(tw, "W\tblocks\tInt IPC_f\tInt IPB\tFP IPC_f")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.2f\n", r.Width, r.Blocks, r.IPCfInt, r.IPBInt, r.IPCfFP)
	}
	return tw.Flush()
}
