package harness

import (
	"fmt"
	"io"

	"mbbp/internal/textchart"
)

// Chart renderers: terminal sketches of the figures, complementing the
// numeric tables (mbpexp -chart). textchart reports no write errors, so
// neither do they.

// chartFig6 plots the misprediction-rate series against history length.
func chartFig6(w io.Writer, rows []Fig6Row) error {
	var xs []string
	var bInt, sInt, bFP []float64
	for _, r := range rows {
		xs = append(xs, fmt.Sprintf("h=%d", r.History))
		bInt = append(bInt, 100*r.BlockedInt)
		sInt = append(sInt, 100*r.ScalarInt)
		bFP = append(bFP, 100*r.BlockedFP)
	}
	textchart.Columns(w, "misprediction % by history length", xs, []textchart.Series{
		{Name: "Int blocked", Values: bInt},
		{Name: "Int scalar", Values: sInt},
		{Name: "FP blocked", Values: bFP},
	}, "%.2f")
	return nil
}

// chartFig7 plots the BIT-size sweep.
func chartFig7(w io.Writer, rows []Fig7Row) error {
	var xs []string
	var share, ipcf []float64
	for _, r := range rows {
		xs = append(xs, fmt.Sprintf("%d", r.Entries))
		share = append(share, r.PctBEPInt)
		ipcf = append(ipcf, r.IPCfInt)
	}
	textchart.Columns(w, "BIT entries: Int BEP share (%) and IPC_f", xs, []textchart.Series{
		{Name: "%BEP(BIT)", Values: share},
		{Name: "IPC_f", Values: ipcf},
	}, "%.2f")
	return nil
}

// chartFig8 plots the Int IPC_f of both selection modes across the
// sweep points.
func chartFig8(w io.Writer, rows []Fig8Row) error {
	var xs []string
	var single, double []float64
	for _, r := range rows {
		xs = append(xs, fmt.Sprintf("%d/%d", r.History, r.STs))
		single = append(single, r.SingleInt)
		double = append(double, r.DoubleInt)
	}
	textchart.Columns(w, "Int IPC_f by history/#STs", xs, []textchart.Series{
		{Name: "single", Values: single},
		{Name: "double", Values: double},
	}, "%.2f")
	fmt.Fprintf(w, "  trend (single): %s\n", textchart.Sparkline(single))
	fmt.Fprintf(w, "  trend (double): %s\n", textchart.Sparkline(double))
	return nil
}

// chartFig9 draws the per-program BEP bars (the figure's silhouette).
func chartFig9(w io.Writer, rows []Fig9Row) error {
	var bars []textchart.Bar
	for _, r := range rows {
		bars = append(bars, textchart.Bar{Label: r.Program, Value: r.BEP})
	}
	textchart.Bars(w, "branch execution penalty by program", bars, 48, "%.3f")
	return nil
}
