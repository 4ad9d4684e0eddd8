package main

import (
	"fmt"
	"io"
	"math"
)

// compareMain compares two record files (bench -record) of the same
// benchmark, parent first. Run i of each workload in one file pairs with
// run i of that workload in the other; run the two sides alternately,
// parent first in half of the pairs. For every (metric, workload) it
// prints each side's median and quartiles and the fraction of pairs the
// change wins (ties count for neither), and gives a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound (for setup_s, also by more than
//     setupFloorS);
//   - unresolved: the parent's own spread exceeds the bound, unless every
//     change run beats every parent run;
//   - gain: at least ten pairs, the change wins nine tenths of them, and
//     the medians differ by more than the parent's interquartile range;
//   - same: none of the above.
//
// It exits 1 when any metric regressed.
func compareMain(sp *spec, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: bench compare parent.jsonl change.jsonl")
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 1
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 1
	}
	values := func(recs []record, wl, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-17s %-30s %-28s %-28s %5s %5s  %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "pairs", "wins", "verdict")
	regressed := false
	for _, wl := range sp.workloadNames() {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			pv, cv := values(parent, wl, m.Name), values(change, wl, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(m, pv, cv)
			regressed = regressed || v.regressed
			fmt.Fprintf(w, "%-17s %-30s %-28s %-28s %5d %5.2f  %s\n", wl, m.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", v.pm, v.pq1, v.pq3),
				fmt.Sprintf("%.5g [%.5g %.5g]", v.cm, v.cq1, v.cq3),
				v.pairs, v.wins, v.text)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// setupFloorS is the least change of setup_s, in seconds, that can be a
// regression: set-ups of a few tens of milliseconds move by more than
// any relative bound from scheduling alone.
const setupFloorS = 0.05

// verdict is the comparison of one (metric, workload).
type verdict struct {
	pm, pq1, pq3, cm, cq1, cq3 float64
	pairs                      int
	wins                       float64
	text                       string
	regressed                  bool
}

func judge(m specMetric, pv, cv []float64) verdict {
	v := verdict{pm: median(pv), cm: median(cv)}
	v.pq1, v.pq3 = quartiles(pv)
	v.cq1, v.cq3 = quartiles(cv)
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.pairs = min(len(pv), len(cv))
	won := 0
	for i := 0; i < v.pairs; i++ {
		if better(cv[i], pv[i]) {
			won++
		}
	}
	v.wins = float64(won) / float64(v.pairs)
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (v.cm - v.pm) / math.Abs(v.pm)
	if m.Better == "higher" {
		worse = -worse
	}
	parentSpread := (v.pq3 - v.pq1) / math.Abs(v.pm)
	switch {
	case m.Bound > 0 && parentSpread > m.Bound && !allBetter:
		v.text = fmt.Sprintf("unresolved: parent spread %.1f%% exceeds the %.0f%% bound", 100*parentSpread, 100*m.Bound)
	case m.Bound > 0 && worse > m.Bound && (m.Name != "setup_s" || v.cm-v.pm > setupFloorS):
		v.text = fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", 100*worse, 100*m.Bound)
		v.regressed = true
	case v.pairs >= 10 && v.wins >= 0.9 && better(v.cm, v.pm) && math.Abs(v.cm-v.pm) > v.pq3-v.pq1:
		v.text = fmt.Sprintf("gain: %.1f%% better", -100*worse)
	default:
		v.text = fmt.Sprintf("same (%+.1f%%)", -100*worse)
	}
	return v
}
