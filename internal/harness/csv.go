package harness

import (
	"encoding/csv"
	"fmt"
	"io"

	"mbbp/internal/metrics"
)

// CSV writers for every experiment, for plotting pipelines
// (mbpexp -csv). Each writes a header row then one record per point.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return fmt.Sprintf("%g", v) }
func d(v int) string     { return fmt.Sprintf("%d", v) }

// csvFig6 writes the Figure 6 series.
func csvFig6(w io.Writer, rows []Fig6Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			d(r.History),
			f(r.BlockedInt), f(r.ScalarInt), f(r.ImproveInt),
			f(r.BlockedFP), f(r.ScalarFP), f(r.ImproveFP),
		})
	}
	return writeCSV(w, []string{
		"history", "int_blocked", "int_scalar", "int_improve_pp",
		"fp_blocked", "fp_scalar", "fp_improve_pp",
	}, out)
}

// csvFig7 writes the Figure 7 series.
func csvFig7(w io.Writer, rows []Fig7Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			d(r.Entries), f(r.PctBEPInt), f(r.IPCfInt), f(r.PctBEPFP), f(r.IPCfFP),
		})
	}
	return writeCSV(w, []string{"bit_entries", "int_pct_bep", "int_ipcf", "fp_pct_bep", "fp_ipcf"}, out)
}

// csvFig8 writes the Figure 8 series.
func csvFig8(w io.Writer, rows []Fig8Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			d(r.History), d(r.STs),
			f(r.SingleInt), f(r.DoubleInt), f(r.SingleFP), f(r.DoubleFP),
		})
	}
	return writeCSV(w, []string{
		"history", "sts", "int_single_ipcf", "int_double_ipcf", "fp_single_ipcf", "fp_double_ipcf",
	}, out)
}

// csvTable5 writes the Table 5 rows.
func csvTable5(w io.Writer, rows []Table5Row) error {
	var out [][]string
	for _, r := range rows {
		near := "0"
		if r.NearBlock {
			near = "1"
		}
		out = append(out, []string{
			r.Kind.String(), d(r.Entries), near,
			f(r.PctBEPImm), f(r.PctBEPInd), f(r.BEP), f(r.IPCf),
		})
	}
	return writeCSV(w, []string{
		"type", "entries", "near_block", "pct_bep_imm", "pct_bep_ind", "bep", "ipcf",
	}, out)
}

// csvTable6 writes the Table 6 rows.
func csvTable6(w io.Writer, rows []Table6Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Kind.String(), d(r.LineSize), d(r.Banks),
			f(r.IPBInt), f(r.IPCf1Int), f(r.IPCf2Int),
			f(r.IPBFP), f(r.IPCf1FP), f(r.IPCf2FP),
		})
	}
	return writeCSV(w, []string{
		"cache", "line", "banks",
		"int_ipb", "int_ipcf_1blk", "int_ipcf_2blk",
		"fp_ipb", "fp_ipcf_1blk", "fp_ipcf_2blk",
	}, out)
}

// csvFig9 writes the Figure 9 breakdown.
func csvFig9(w io.Writer, rows []Fig9Row) error {
	header := []string{"program", "suite", "bep"}
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		header = append(header, fmt.Sprintf("bep_%s", sanitize(k.String())))
	}
	var out [][]string
	for _, r := range rows {
		rec := []string{r.Program, r.Suite, f(r.BEP)}
		for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
			rec = append(rec, f(r.ByKind[k]))
		}
		out = append(out, rec)
	}
	return writeCSV(w, header, out)
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}
