package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads computed here match the ones Python
// computes from the same values. Fewer than two values give the value
// itself for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentiles are the candidates tail considers, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail picks the highest percentile that has at least ten samples beyond
// it, the rule for reporting a latency tail honestly. It returns the
// percentile, its value and the number of samples beyond it; with fewer
// than ten samples beyond even the median it reports the median.
func tail(xs []float64) (p, v float64, past int) {
	for _, p := range tailPercentiles {
		if b := beyond(len(xs), p); b >= 10 {
			return p, percentile(xs, p), b
		}
	}
	return 0.5, percentile(xs, 0.5), beyond(len(xs), 0.5)
}

// pass is one timed unit of equal-shape work: a sweep of the grid, a
// pass over the trace files, or a round of the service loop.
type pass struct {
	t0, t1 time.Time
	instr  uint64 // simulated instructions x configurations completed
	done   int    // results delivered, or requests answered correctly
}

func (p pass) wall() float64 { return p.t1.Sub(p.t0).Seconds() }

// setE2E fills the end-to-end metrics, every timing at the reference
// host speed (see hostMeter). The throughputs are the run's totals over
// the time its passes took: simulated instructions, and results or
// correct replies, per second of the timed phase, the kernel samples
// between passes left out. lats holds the latency of every request
// (service) or job (tracefile) in ms, already at the reference speed;
// when it is nil (the sweeps, whose caller waits for a whole pass) the
// latency is taken over the pass times and restates the throughput.
// latency_p95_ms is the 95th percentile when at least ten samples lie
// beyond it, and the median otherwise (a sweep runs a handful of
// passes, too few for any tail). setups holds the set-up repetitions in s at the reference speed;
// setup_s is their median. Peak RSS is in MB.
func setE2E(out *outcome, m *hostMeter, passes []pass, lats, setups []float64, rss float64) {
	var instr, done, secs, rawSecs float64
	var walls []float64
	for _, p := range passes {
		s := m.speed(p.t0, p.t1)
		instr += float64(p.instr)
		done += float64(p.done)
		secs += p.wall() * s
		rawSecs += p.wall()
		walls = append(walls, 1e3*p.wall()*s)
	}
	out.set("sim_minstr_per_s", instr/secs/1e6, len(passes))
	out.set("req_per_s", done/secs, len(passes))
	if lats == nil {
		lats = walls
	}
	if beyond(len(lats), 0.95) >= 10 {
		out.set("latency_p95_ms", percentile(lats, 0.95), len(lats))
	} else {
		out.set("latency_p95_ms", median(lats), len(lats))
	}
	p, v, past := tail(lats)
	out.note("latency over %d samples: p50 %.4g ms, p95 %.4g ms; tail p%g = %.4g ms with %d beyond",
		len(lats), percentile(lats, 0.5), percentile(lats, 0.95), 100*p, v, past)
	out.set("setup_s", median(setups), len(setups))
	out.set("peak_rss_mb", rss, 1)
	sp := m.speeds()
	out.note("host speed over %d samples (reference 1): min %.3f median %.3f max %.3f",
		len(sp), percentile(sp, 0), median(sp), percentile(sp, 1))
	rawWalls := passWalls(passes)
	out.note("uncorrected: %.4g Minstr/s over %d passes; pass wall min %.4gms median %.4gms max %.4gms",
		instr/rawSecs/1e6, len(passes), percentile(rawWalls, 0), median(rawWalls), percentile(rawWalls, 1))
}

// passWalls returns each pass's wall time in ms, as measured.
func passWalls(passes []pass) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = 1e3 * p.wall()
	}
	return out
}
