package harness

import (
	"bytes"
	"os"
	"sync"
	"testing"
)

var testTraces *TraceSet

func TestMain(m *testing.M) {
	var err error
	testTraces, err = LoadTraces(Options{Instructions: 120_000})
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// The experiments are deterministic over testTraces, so tests share one
// run of each (default parameters, default scheduler) via these cached
// accessors.
func cached[R any](d *Descriptor[R]) func(t *testing.T) R {
	var once sync.Once
	var r R
	var err error
	return func(t *testing.T) R {
		t.Helper()
		once.Do(func() { r, err = d.Run(DefaultScheduler(), testTraces, Params{})() })
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

var (
	cachedFig6      = cached(Fig6)
	cachedFig7      = cached(Fig7)
	cachedFig8      = cached(Fig8)
	cachedFig9      = cached(Fig9)
	cachedTable5    = cached(Table5)
	cachedTable6    = cached(Table6)
	cachedCompare   = cached(Compare)
	cachedExtBlocks = cached(ExtBlocks)
	cachedAblation  = cached(Ablation)
	cachedBaseline  = cached(Baseline)
	cachedWidths    = cached(Widths)
	cachedEvents    = cached(Events)
	cachedH2P       = cached(H2P)
)

// TestFig6Shape checks the paper's Figure 6 claims: the blocked PHT's
// accuracy is essentially the scalar PHT's, and FP codes mispredict far
// less than integer codes.
func TestFig6Shape(t *testing.T) {
	rows := cachedFig6(t)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7 (history 6..12)", len(rows))
	}
	for _, r := range rows {
		if r.BlockedFP >= r.BlockedInt {
			t.Errorf("h=%d: FP misprediction %.3f should be below Int %.3f",
				r.History, r.BlockedFP, r.BlockedInt)
		}
		// "The difference in accuracy ... were small": within 3
		// percentage points either way.
		if d := r.BlockedInt - r.ScalarInt; d > 0.03 || d < -0.03 {
			t.Errorf("h=%d: blocked vs scalar Int differ by %.3f", r.History, d)
		}
		if d := r.BlockedFP - r.ScalarFP; d > 0.03 || d < -0.03 {
			t.Errorf("h=%d: blocked vs scalar FP differ by %.3f", r.History, d)
		}
	}
	var buf bytes.Buffer
	renderFig6(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestFig7Shape checks that small BIT tables hurt and the BIT share of
// BEP shrinks monotonically-ish as the table grows.
func TestFig7Shape(t *testing.T) {
	rows := cachedFig7(t)
	first, last := rows[0], rows[len(rows)-1]
	if first.PctBEPInt <= last.PctBEPInt {
		t.Errorf("BIT share should shrink: 64 entries %.1f%%, 4096 entries %.1f%%",
			first.PctBEPInt, last.PctBEPInt)
	}
	if first.IPCfInt >= last.IPCfInt {
		t.Errorf("IPC_f should grow with BIT size: %.2f vs %.2f", first.IPCfInt, last.IPCfInt)
	}
	var buf bytes.Buffer
	renderFig7(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestFig8Shape checks single selection beats double selection and that
// more select tables help double selection substantially.
func TestFig8Shape(t *testing.T) {
	rows := cachedFig8(t)
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	singleWins := 0
	for _, r := range rows {
		if r.SingleInt >= r.DoubleInt {
			singleWins++
		}
	}
	if singleWins < 12 {
		t.Errorf("single selection should beat double on Int in most configs; won %d/16", singleWins)
	}
	// Double selection improves with more STs (paper: "significantly
	// improves with more STs") at fixed history.
	var h10 []Fig8Row
	for _, r := range rows {
		if r.History == 10 {
			h10 = append(h10, r)
		}
	}
	if h10[len(h10)-1].DoubleInt <= h10[0].DoubleInt {
		t.Errorf("double selection with 8 STs (%.2f) should beat 1 ST (%.2f)",
			h10[len(h10)-1].DoubleInt, h10[0].DoubleInt)
	}
	var buf bytes.Buffer
	renderFig8(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestTable5Shape checks the target-array trends: more entries reduce
// misfetch BEP, near-block encoding reduces immediate misfetches, and a
// BTB entry is worth roughly two NLS entries.
func TestTable5Shape(t *testing.T) {
	rows := cachedTable5(t)
	byKey := map[string]Table5Row{}
	for _, r := range rows {
		key := r.Kind.String()
		if r.NearBlock {
			key += "+near"
		}
		byKey[keyN(key, r.Entries)] = r
	}
	if a, b := byKey[keyN("NLS", 64)], byKey[keyN("NLS", 512)]; a.IPCf >= b.IPCf {
		t.Errorf("NLS 512 (%.2f) should beat NLS 64 (%.2f)", b.IPCf, a.IPCf)
	}
	if a, b := byKey[keyN("NLS", 256)], byKey[keyN("NLS+near", 256)]; a.PctBEPImm <= b.PctBEPImm {
		t.Errorf("near-block should cut immediate misfetch share: %.1f vs %.1f",
			a.PctBEPImm, b.PctBEPImm)
	}
	var buf bytes.Buffer
	renderTable5(&buf, rows)
	t.Logf("\n%s", buf.String())
}

func keyN(k string, n int) string { return k + ":" + string(rune('0'+n/64)) }

// TestTable6Shape checks normal < extended <= self-aligned on IPB, and
// dual block beating single block on IPC_f.
func TestTable6Shape(t *testing.T) {
	rows := cachedTable6(t)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	normal, extend, align := rows[0], rows[1], rows[2]
	if !(normal.IPBInt < extend.IPBInt && extend.IPBInt < align.IPBInt) {
		t.Errorf("Int IPB should rise normal<extend<align: %.2f %.2f %.2f",
			normal.IPBInt, extend.IPBInt, align.IPBInt)
	}
	for _, r := range rows {
		if r.IPCf2Int <= r.IPCf1Int {
			t.Errorf("%v: dual Int IPC_f %.2f should beat single %.2f", r.Kind, r.IPCf2Int, r.IPCf1Int)
		}
		if r.IPCf2FP <= r.IPCf1FP {
			t.Errorf("%v: dual FP IPC_f %.2f should beat single %.2f", r.Kind, r.IPCf2FP, r.IPCf1FP)
		}
	}
	var buf bytes.Buffer
	renderTable6(&buf, rows)
	t.Logf("\n%s", buf.String())
}

// TestFig9Shape checks the breakdown covers every program plus the two
// suite aggregates, and that conditional mispredictions dominate BEP, as
// in the paper.
func TestFig9Shape(t *testing.T) {
	rows := cachedFig9(t)
	want := len(testTraces.Programs()) + 2
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	var buf bytes.Buffer
	renderFig9(&buf, rows)
	t.Logf("\n%s", buf.String())
}
