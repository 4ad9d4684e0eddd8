package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mbbp/internal/core"
	"mbbp/internal/pht"
)

// These experiments go beyond the paper's printed tables: they exercise
// the design choices the paper discusses but does not sweep (the §5
// more-than-two-blocks extension, the per-block multi-PHT variation of
// §2, and the gshare indexing choice borrowed from McFarling).

// ExtBlocks sweeps blocks-per-cycle from 1 to 4 (§5: "it is possible to
// predict more than two blocks per cycle ... the cost grows
// proportionally to the number of blocks predicted").
var ExtBlocks = &Descriptor[[]ExtBlocksRow]{Name: "extblocks", Run: runExtBlocks, Text: renderExtBlocks}

// ExtBlocksRow is one point of the N-block extension sweep.
type ExtBlocksRow struct {
	Blocks          int
	IPCfInt, IPCfFP float64
	BEPInt, BEPFP   float64
	CostKbits       float64 // select tables + target arrays scale per block
}

// runExtBlocks submits the §5 extension sweep: 1-4 blocks per cycle.
func runExtBlocks(s *Scheduler, ts *TraceSet, _ Params) func() ([]ExtBlocksRow, error) {
	b := NewBatch(s, ts)
	var promises []*SuitePromise
	for blocks := 1; blocks <= 4; blocks++ {
		cfg := core.DefaultConfig()
		if blocks == 1 {
			cfg.Mode = core.SingleBlock
		}
		cfg.NumBlocks = blocks
		promises = append(promises, b.RunConfig(cfg))
	}
	b.Flush()
	return func() ([]ExtBlocksRow, error) {
		var rows []ExtBlocksRow
		for i, p := range promises {
			blocks := i + 1
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			// Cost: PHT + BIT + BBR fixed; one ST and one NLS per block
			// beyond the first, plus the first target array.
			stBits := 8.0 * 1024 * float64(blocks-1)
			nlsBits := 20.0 * 1024 * float64(blocks)
			fixed := 16.0*1024 + 16.0*1024 + 328
			rows = append(rows, ExtBlocksRow{
				Blocks:  blocks,
				IPCfInt: res.Int.IPCf(), IPCfFP: res.FP.IPCf(),
				BEPInt: res.Int.BEP(), BEPFP: res.FP.BEP(),
				CostKbits: (fixed + stBits + nlsBits) / 1024,
			})
		}
		return rows, nil
	}
}

// renderExtBlocks writes the extension sweep.
func renderExtBlocks(w io.Writer, rows []ExtBlocksRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Extension (§5): blocks fetched per cycle (single selection, normal cache)")
	fmt.Fprintln(tw, "blocks\tInt IPC_f\tInt BEP\tFP IPC_f\tFP BEP\t~cost Kbit")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.3f\t%.2f\t%.3f\t%.0f\n",
			r.Blocks, r.IPCfInt, r.BEPInt, r.IPCfFP, r.BEPFP, r.CostKbits)
	}
	return tw.Flush()
}

// Ablation sweeps the number of blocked PHTs (the per-block variation)
// and the index function (gshare vs history-only), holding total
// predictor storage constant per row label.
var Ablation = &Descriptor[[]AblationRow]{Name: "ablation", Run: runAblation, Text: renderAblation}

// AblationRow is one predictor-organization point.
type AblationRow struct {
	Label                 string
	MispIntPct, MispFPPct float64
	IPCfInt, IPCfFP       float64
}

// runAblation submits the PHT-organization ablation grid.
func runAblation(s *Scheduler, ts *TraceSet, _ Params) func() ([]AblationRow, error) {
	type pnt struct {
		label string
		phts  int
		mode  pht.IndexMode
	}
	points := []pnt{
		{"1 PHT, gshare (paper)", 1, pht.IndexGShare},
		{"1 PHT, history-only", 1, pht.IndexGlobal},
		{"4 PHTs, gshare", 4, pht.IndexGShare},
		{"4 PHTs, history-only (per-block GAp)", 4, pht.IndexGlobal},
	}
	b := NewBatch(s, ts)
	var promises []*SuitePromise
	for _, p := range points {
		cfg := core.DefaultConfig()
		cfg.Mode = core.SingleBlock
		cfg.NumPHTs = p.phts
		cfg.IndexMode = p.mode
		promises = append(promises, b.RunConfig(cfg))
	}
	b.Flush()
	return func() ([]AblationRow, error) {
		var rows []AblationRow
		for i, p := range promises {
			res, err := p.Wait()
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Label:      points[i].label,
				MispIntPct: 100 * res.Int.CondMispredictRate(),
				MispFPPct:  100 * res.FP.CondMispredictRate(),
				IPCfInt:    res.Int.IPCf(),
				IPCfFP:     res.FP.IPCf(),
			})
		}
		return rows, nil
	}
}

// renderAblation writes the PHT-organization ablation.
func renderAblation(w io.Writer, rows []AblationRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation: PHT organization and index function (single block)")
	fmt.Fprintln(tw, "organization\tInt misp%\tFP misp%\tInt IPC_f\tFP IPC_f")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Label, r.MispIntPct, r.MispFPPct, r.IPCfInt, r.IPCfFP)
	}
	return tw.Flush()
}
