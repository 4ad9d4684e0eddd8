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

// SeedsRow reports one random seed's suite results.
type SeedsRow struct {
	Seed            int64
	IPCfInt, IPCfFP float64
	MispIntPct      float64
}

// SeedsAsync submits the robustness sweep: every (seed × program) trace
// capture is one job, and each seed's suite run fans out per program as
// soon as its traces are collected. Capture for later seeds overlaps
// the simulation of earlier ones.
func SeedsAsync(s *Scheduler, o Options, seeds []int64) func() ([]SeedsRow, error) {
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

// Seeds re-runs the default configuration over the suite with the
// workload generators' pseudo-random seeds replaced, checking that the
// reported numbers are properties of program *structure*, not of one
// particular input stream. (The FP kernels are deterministic; their
// variation comes only from wave5's particle placement.)
func Seeds(o Options, seeds []int64) ([]SeedsRow, error) {
	return SeedsAsync(DefaultScheduler(), o, seeds)()
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

// RenderSeeds writes the robustness table.
func RenderSeeds(w io.Writer, rows []SeedsRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Robustness: default configuration across workload input seeds")
	fmt.Fprintln(tw, "seed\tInt IPC_f\tFP IPC_f\tInt misp%")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\n", r.Seed, r.IPCfInt, r.IPCfFP, r.MispIntPct)
	}
	tw.Flush()
	mean, dev := SeedSpread(rows)
	fmt.Fprintf(w, "Int IPC_f mean %.2f, max deviation %.1f%%\n", mean, 100*dev)
}

// WidthsRow is one (block width, blocks per cycle) point.
type WidthsRow struct {
	Width, Blocks   int
	IPCfInt, IPCfFP float64
	IPBInt          float64
}

// WidthsAsync submits the block-width sweep grid.
func WidthsAsync(s *Scheduler, ts *TraceSet) func() ([]WidthsRow, error) {
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

// Widths sweeps the block width — §4's remark that "a simpler
// configuration ... would be to use two blocks of four instructions
// each", which "would still yield an excellent fetching rate".
func Widths(ts *TraceSet) ([]WidthsRow, error) { return WidthsAsync(DefaultScheduler(), ts)() }

// ICacheRow is one finite-instruction-cache point.
type ICacheRow struct {
	Lines           int // 0 = perfect
	IPCfInt, IPCfFP float64
	MissPerKInt     float64 // misses per 1000 instructions, Int suite
}

// ICacheAsync submits the finite-instruction-cache sweep.
func ICacheAsync(s *Scheduler, ts *TraceSet) func() ([]ICacheRow, error) {
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

// ICache sweeps the optional finite instruction cache (an extension —
// the paper assumes a perfect one): how small the cache must get before
// fetch-prediction gains drown in miss stalls.
func ICache(ts *TraceSet) ([]ICacheRow, error) { return ICacheAsync(DefaultScheduler(), ts)() }

// RenderICache writes the finite-cache sweep.
func RenderICache(w io.Writer, rows []ICacheRow) {
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
	tw.Flush()
}

// RenderWidths writes the width sweep.
func RenderWidths(w io.Writer, rows []WidthsRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Block width sweep (normal cache): two narrow blocks vs one wide block")
	fmt.Fprintln(tw, "W\tblocks\tInt IPC_f\tInt IPB\tFP IPC_f")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.2f\n", r.Width, r.Blocks, r.IPCfInt, r.IPBInt, r.IPCfFP)
	}
	tw.Flush()
}
