package harness

import (
	"bytes"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/paperdata"
)

func defaultCfg() core.Config { return core.DefaultConfig() }

// TestCompareHeadlines checks the paper's headline claims hold on the
// test trace set, with generous tolerances for the short runs.
func TestCompareHeadlines(t *testing.T) {
	c := cachedCompare(t)
	if c.FPAccuracy <= c.IntAccuracy {
		t.Errorf("FP accuracy %.3f must exceed Int %.3f", c.FPAccuracy, c.IntAccuracy)
	}
	if c.IntAccuracy < 0.85 || c.IntAccuracy > 0.99 {
		t.Errorf("Int accuracy %.3f far from paper's %.3f", c.IntAccuracy, paperdata.Fig6IntAccuracy)
	}
	if c.DualRatioInt < 1.2 || c.DualRatioInt > 1.8 {
		t.Errorf("dual/single Int ratio %.2f far from paper's %.2f",
			c.DualRatioInt, paperdata.DualOverSingleInt)
	}
	if c.DualRatioFP <= c.DualRatioInt {
		t.Errorf("FP dual ratio %.2f should exceed Int %.2f (paper: 1.7 vs 1.4)",
			c.DualRatioFP, c.DualRatioInt)
	}
	if c.DoubleLoss <= 0 || c.DoubleLoss > 0.3 {
		t.Errorf("double-selection loss %.2f out of the paper's ballpark (~0.10)", c.DoubleLoss)
	}
	if c.NearShare < 0.4 || c.NearShare > 0.95 {
		t.Errorf("near-block share %.2f far from paper's ~0.70", c.NearShare)
	}
	var buf bytes.Buffer
	renderCompare(&buf, c)
	t.Logf("\n%s", buf.String())
}

// TestWarmupOption checks the untimed training pass: a warmed run never
// charges more penalty cycles than a cold one on the same traces.
func TestWarmupOption(t *testing.T) {
	cold, err := LoadTraces(Options{Instructions: 60_000, Programs: []string{"li", "swim"}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := LoadTraces(Options{Instructions: 60_000, Programs: []string{"li", "swim"}, Warmup: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	rc, err := RunConfig(cold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RunConfig(warm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Int.TotalPenaltyCycles() > rc.Int.TotalPenaltyCycles() {
		t.Errorf("warmed penalties %d exceed cold %d",
			rw.Int.TotalPenaltyCycles(), rc.Int.TotalPenaltyCycles())
	}
	if rw.Int.IPCf() < rc.Int.IPCf() {
		t.Errorf("warmed IPC_f %.2f below cold %.2f", rw.Int.IPCf(), rc.Int.IPCf())
	}
}

// TestExtBlocksShape checks the §5 extension: FP fetch rate keeps
// rising through four blocks, cost rises linearly.
func TestExtBlocksShape(t *testing.T) {
	rows := cachedExtBlocks(t)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < 4; i++ {
		if rows[i].IPCfFP <= rows[i-1].IPCfFP {
			t.Errorf("FP IPC_f should rise with blocks: %.2f -> %.2f at %d blocks",
				rows[i-1].IPCfFP, rows[i].IPCfFP, rows[i].Blocks)
		}
		if d := rows[i].CostKbits - rows[i-1].CostKbits; d != 28 {
			t.Errorf("cost step %d->%d blocks = %.0f Kbit, want 28 (one ST + one NLS)",
				rows[i-1].Blocks, rows[i].Blocks, d)
		}
	}
	var buf bytes.Buffer
	renderExtBlocks(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestAblationPHTShape checks the ablation rows all run and gshare is
// competitive with history-only indexing.
func TestAblationPHTShape(t *testing.T) {
	rows := cachedAblation(t)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	gshare, global := rows[0], rows[1]
	if gshare.MispIntPct > global.MispIntPct+1 {
		t.Errorf("gshare (%.2f%%) should not trail history-only (%.2f%%) by much",
			gshare.MispIntPct, global.MispIntPct)
	}
	var buf bytes.Buffer
	renderAblation(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestWidthsShape checks §4's remark: two blocks of four instructions
// beat one block of eight on FP, and wider is better at fixed blocks.
func TestWidthsShape(t *testing.T) {
	rows := cachedWidths(t)
	get := func(w, b int) WidthsRow {
		for _, r := range rows {
			if r.Width == w && r.Blocks == b {
				return r
			}
		}
		t.Fatalf("missing row %d/%d", w, b)
		return WidthsRow{}
	}
	if get(4, 2).IPCfFP <= get(8, 1).IPCfFP {
		t.Errorf("two 4-wide blocks (%.2f) should beat one 8-wide (%.2f) on FP",
			get(4, 2).IPCfFP, get(8, 1).IPCfFP)
	}
	if get(16, 2).IPCfInt <= get(8, 2).IPCfInt {
		t.Errorf("wider blocks should help Int: W16 %.2f vs W8 %.2f",
			get(16, 2).IPCfInt, get(8, 2).IPCfInt)
	}
	var buf bytes.Buffer
	renderWidths(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestSeedsRobustness runs three seeds over a subset and checks the
// integer fetch rate varies by little.
func TestSeedsRobustness(t *testing.T) {
	rows, err := seedsAsync(DefaultScheduler(), Options{
		Instructions: 80_000,
		Programs:     []string{"compress", "go", "swim"},
	}, []int64{3, 77, 991})()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	mean, dev := SeedSpread(rows)
	if mean <= 0 {
		t.Fatal("no throughput measured")
	}
	if dev > 0.15 {
		t.Errorf("Int IPC_f varies %.0f%% across seeds: results not input-robust", 100*dev)
	}
	// Different seeds must actually change the integer streams.
	if rows[0].MispIntPct == rows[1].MispIntPct && rows[1].MispIntPct == rows[2].MispIntPct {
		t.Error("seed replacement had no effect on the workloads")
	}
	var buf bytes.Buffer
	renderSeeds(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestSeedsHonorsWarmup checks that the seed sweep, which captures its
// own traces, runs them under the caller's options like every other
// driver: a warmed seed row must differ from the cold one and must not
// mispredict more.
func TestSeedsHonorsWarmup(t *testing.T) {
	opts := Options{Instructions: 20_000, Programs: []string{"compress", "gcc"}}
	seeds := []int64{1}
	cold, err := seedsAsync(DefaultScheduler(), opts, seeds)()
	if err != nil {
		t.Fatal(err)
	}
	opts.Warmup = true
	warm, err := seedsAsync(DefaultScheduler(), opts, seeds)()
	if err != nil {
		t.Fatal(err)
	}
	if warm[0] == cold[0] {
		t.Fatalf("seeds ignored Warmup: warmed row %+v equals cold row", warm[0])
	}
	if warm[0].MispIntPct > cold[0].MispIntPct {
		t.Errorf("warmed Int mispredict %.2f%% exceeds cold %.2f%%", warm[0].MispIntPct, cold[0].MispIntPct)
	}
}

// TestWriteReport renders the full markdown report and checks every
// section materializes.
func TestWriteReport(t *testing.T) {
	// A small subset keeps the report test fast; the full-suite paths
	// are covered by the individual experiment tests.
	ts, err := LoadTraces(Options{Instructions: 60_000, Programs: []string{"li", "go", "swim", "mgrid"}})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Report.Run(DefaultScheduler(), ts, Params{})()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Report.Text(&buf, parts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Reproduction report",
		"## Figure 6", "## Figure 7", "## Figure 8",
		"## Table 5", "## Table 6", "## Figure 9",
		"## Headline claims", "## Extension", "## Ablation",
		"## Baseline", "## Hardware cost",
		"CINT95", "CFP95", "4 programs, 60000 dynamic instructions each",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

// TestCharts exercises the chart renderers over real experiment rows.
func TestCharts(t *testing.T) {
	f6 := cachedFig6(t)
	var buf bytes.Buffer
	chartFig6(&buf, f6)
	if buf.Len() == 0 {
		t.Error("empty fig6 chart")
	}
	f9 := cachedFig9(t)
	buf.Reset()
	chartFig9(&buf, f9)
	if !bytes.Contains(buf.Bytes(), []byte("#")) {
		t.Error("charts drew no bars")
	}
}

// TestBaselineShape checks the introduction's comparison: the paper's
// scheme fetches bigger blocks than the basic-block BAC baseline, and
// the BAC's cost curve dwarfs the select table's.
func TestBaselineShape(t *testing.T) {
	rows := cachedBaseline(t)
	paper := rows[len(rows)-1]
	bac256 := rows[len(rows)-2]
	if paper.IPBInt <= bac256.IPBInt {
		t.Errorf("paper IPB %.2f should exceed BAC IPB %.2f (NT branches end BAC blocks)",
			paper.IPBInt, bac256.IPBInt)
	}
	if paper.IPCfInt <= bac256.IPCfInt {
		t.Errorf("paper Int IPC_f %.2f should exceed BAC's %.2f", paper.IPCfInt, bac256.IPCfInt)
	}
	var buf bytes.Buffer
	renderBaseline(&buf, rows)
	t.Logf("\n%s", buf.String())
}
