package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/workload"
)

// mbbpdBin is the service binary the tests share, built once in
// TestMain.
var mbbpdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mbbpdBin = filepath.Join(dir, "mbbpd")
	build := exec.Command("go", "build", "-o", mbbpdBin, "mbbp/cmd/mbbpd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building mbbpd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs the benchmark in-process for a fraction of a second and
// returns its report and result line.
func runBench(t *testing.T, args ...string) (string, resultLine) {
	t.Helper()
	var out bytes.Buffer
	base := []string{"-root", "..", "-workdir", t.TempDir(), "-mbbpd", mbbpdBin, "-seconds", "0.3"}
	if code := run(append(base, args...), &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestTinyRuns runs every workload untraced and traced at n=20k: each
// must check out with no failure and print exactly the metrics
// BENCHMARK.json declares for its mode.
func TestTinyRuns(t *testing.T) {
	sp := testSpec(t)
	for _, w := range sp.workloadNames() {
		for _, traced := range []string{"0", "1"} {
			_, res := runBench(t, "-workload", w, "-seed", "1", "-trace", traced, "-n", "20000")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%t failed %d of %d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			var want, got []string
			for _, m := range sp.metrics(traced == "1") {
				want = append(want, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%s: %s unit %q, spec says %q", w, traced, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(want, " ") != strings.Join(got, " ") {
				t.Errorf("%s trace=%s: printed metrics %v, spec declares %v", w, traced, got, want)
			}
		}
	}
}

// TestCommittedDigests runs service-mixed at its default sizes on the
// committed seed, so the replies are checked against the digests under
// testdata/expected as well as against re-simulation.
func TestCommittedDigests(t *testing.T) {
	out, res := runBench(t, "-workload", "service-mixed", "-seed", "1")
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%t failed %d of %d:\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if want := "oracle: checking against 8 committed service-mixed digests (seed 1)"; !strings.Contains(out, want) {
		t.Errorf("report lacks %q:\n%s", want, out)
	}
}

// TestCommittedDigestKeys: every committed digest file is for seed 1 at
// default sizes and holds exactly the cells the generators now produce,
// so a change to a generator cannot leave the digests silently unused.
func TestCommittedDigestKeys(t *testing.T) {
	cells := func(cfgs []core.Config) []string {
		var out []string
		for _, cfg := range cfgs {
			for _, p := range workload.Names() {
				out = append(out, cellKey(cfg, p))
			}
		}
		return out
	}
	var hot []string
	for i, q := range hotSet(1, defaultServiceSizes()) {
		hot = append(hot, hotKey(i, q))
	}
	for w, want := range map[string][]string{
		"sweep-lanes":      cells(lanesConfigs(1)),
		"sweep-geometries": cells(geometryConfigs(1)),
		"tracefile-h2p":    cells([]core.Config{tracefileConfig(1)}),
		"service-mixed":    hot,
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "expected", w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f expectedFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if f.Workload != w || f.Seed != 1 || f.N != 0 {
			t.Errorf("%s: file is for workload %q seed %d n %d", w, f.Workload, f.Seed, f.N)
		}
		got := sortedKeys(f.Digests)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: %d committed cells differ from the %d generated ones; regenerate with --update", w, len(got), len(want))
		}
	}
}

// TestSpecLimits checks BENCHMARK.json against the limits of its format,
// and that it names the implemented workloads.
func TestSpecLimits(t *testing.T) {
	sp := testSpec(t)
	if err := checkWorkloads(sp); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range sp.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("bad workload entry %+v", w)
		}
		seen[w.Name] = true
	}
	var setupBound, maxBound float64
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) {
			t.Errorf("bad metric entry %+v", m)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better: %+v", m)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound: %g < %g", setupBound, maxBound)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// TestGeneratorsDeterministic: the same seed yields the same inputs, and
// another seed other inputs.
func TestGeneratorsDeterministic(t *testing.T) {
	inputs := func(seed int64) []string {
		var out []string
		for _, cfg := range lanesConfigs(seed) {
			out = append(out, configHash(cfg))
		}
		for _, cfg := range geometryConfigs(seed) {
			out = append(out, configHash(cfg))
		}
		out = append(out, configHash(tracefileConfig(seed)))
		hot := hotSet(seed, defaultServiceSizes())
		for _, q := range hot {
			out = append(out, string(q.body))
		}
		for c := 0; c < 2; c++ {
			st := newClientStream(seed, c, hot, defaultServiceSizes())
			for i := 0; i < 100; i++ {
				out = append(out, string(st.next().body))
			}
		}
		return out
	}
	a, b, c := inputs(1), inputs(1), inputs(2)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("seed 1 generated different inputs on two calls")
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Hot bodies recur within a stream; fresh draws must not coincide.
	if same > len(a)/2 {
		t.Errorf("seeds 1 and 2 share %d of %d inputs", same, len(a))
	}
	if n := len(lanesConfigs(1)); n != 32 {
		t.Errorf("sweep-lanes has %d configs, want 32", n)
	}
	if n := len(groupByGeometry(lanesConfigs(1))); n != 1 {
		t.Errorf("sweep-lanes spans %d geometries, want 1", n)
	}
	if n := len(groupByGeometry(geometryConfigs(1))); n != 9 {
		t.Errorf("sweep-geometries spans %d geometries, want 9", n)
	}
}

// TestGridsKeepTheirShape: across seeds a grid position keeps its
// structure and predictor family, every generated configuration is
// valid (configHash panics otherwise), and each size value occurs
// equally often up to one.
func TestGridsKeepTheirShape(t *testing.T) {
	shape := func(cfgs []core.Config) string {
		var b strings.Builder
		for _, c := range cfgs {
			fmt.Fprintf(&b, "%v/%v/%v/%v/%d/%d/%v;", c.Geometry, c.Mode, c.Selection, c.TargetArray, c.BITEntries, c.NumBlocks, c.Predictor)
		}
		return b.String()
	}
	lanes, geoms := shape(lanesConfigs(1)), shape(geometryConfigs(1))
	for seed := int64(1); seed <= 30; seed++ {
		if got := shape(lanesConfigs(seed)); got != lanes {
			t.Errorf("seed %d: sweep-lanes grid shape differs from seed 1", seed)
		}
		if got := shape(geometryConfigs(seed)); got != geoms {
			t.Errorf("seed %d: sweep-geometries grid shape differs from seed 1", seed)
		}
		configHash(tracefileConfig(seed))
		hot := hotSet(seed, defaultServiceSizes())
		st := newClientStream(seed, 0, hot, defaultServiceSizes())
		for i := 0; i < 40; i++ {
			for _, cfg := range st.next().configs {
				configHash(cfg)
			}
		}
	}
	r := newRNG(7, "test")
	for _, n := range []int{1, 5, 8, 9, 24} {
		counts := map[int]int{}
		for _, v := range balanced(r, n, []int{1, 2, 3}) {
			counts[v]++
		}
		for v, c := range counts {
			if c < n/3 || c > n/3+1 {
				t.Errorf("balanced(%d): value %d occurs %d times", n, v, c)
			}
		}
	}
}

// TestClientMix: every block of a client's stream holds the mix exactly.
func TestClientMix(t *testing.T) {
	want := map[string]int{}
	for _, class := range clientMix {
		want[class]++
	}
	st := newClientStream(3, 1, hotSet(3, defaultServiceSizes()), defaultServiceSizes())
	for block := 0; block < 5; block++ {
		got := map[string]int{}
		for range clientMix {
			got[st.next().class]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("block %d: mix %v, want %v", block, got, want)
		}
	}
}

// TestTail: the tail helper picks the highest percentile with at least
// ten samples beyond it and reports how many there are.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.95, 49},
		{200, 0.95, 10},
		{199, 0.9, 19},
		{50, 0.75, 12},
		{5, 0.5, 2},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1)
		}
		p, v, past := tail(xs)
		if p != c.p || past != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, 100*p, past, 100*c.p, c.beyond)
		}
		if want := float64(c.n - c.beyond); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}

// TestHostSpeed: a span is scaled by the mean of the samples taken just
// before and just after it, or by the one it has when the other is
// missing, and the kernel itself reports a positive speed.
func TestHostSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	m := &hostMeter{samples: []hostSample{{at(0), 0.8}, {at(10), 1.0}, {at(20), 0.6}}}
	for _, c := range []struct {
		from, to float64
		want     float64
	}{
		{1, 9, 0.9},   // between the first two samples
		{11, 19, 0.8}, // between the last two
		{10, 20, 0.8}, // a sample taken at a span's ends brackets it
		{1, 19, 0.7},  // across a sample: the outer two
		{21, 25, 0.6}, // after the last sample
		{-5, -1, 0.8}, // before the first
	} {
		if got := m.speed(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speed(%g, %g) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
	if got := m.refSeconds(at(1), at(9)); math.Abs(got-8*0.9) > 1e-9 {
		t.Errorf("refSeconds(1, 9) = %g, want %g", got, 8*0.9)
	}
	live := newHostMeter(1)
	live.sample(1)
	if s := live.speeds(); len(s) != 1 || !(s[0] > 0) {
		t.Errorf("one kernel sample gave speeds %v", s)
	}
}

// TestJudge: compare flags a regression beyond the bound, a gain only
// with nine tenths of ten pairs won, and a noisy parent as unresolved.
func TestJudge(t *testing.T) {
	m := specMetric{Name: "sim_minstr_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 101}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if v := judge(m, steady, scale(steady, 0.8)); !v.regressed {
		t.Errorf("20%% slower: %s", v.text)
	}
	if v := judge(m, steady, scale(steady, 1.05)); v.regressed || !strings.HasPrefix(v.text, "gain") {
		t.Errorf("5%% faster on every pair: %s", v.text)
	}
	if v := judge(m, steady, scale(steady, 0.97)); v.regressed || !strings.HasPrefix(v.text, "same") {
		t.Errorf("3%% slower within bound: %s", v.text)
	}
	noisy := []float64{60, 140, 80, 120, 70, 130, 90, 110, 100, 100}
	if v := judge(m, noisy, scale(noisy, 0.95)); !strings.HasPrefix(v.text, "unresolved") {
		t.Errorf("noisy parent: %s", v.text)
	}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	fast := []float64{0.02, 0.021, 0.019, 0.02, 0.02}
	if v := judge(setup, fast, scale(fast, 1.5)); v.regressed {
		t.Errorf("setup 10 ms slower, under the 50 ms floor: %s", v.text)
	}
	if v := judge(setup, scale(fast, 10), scale(fast, 15)); !v.regressed {
		t.Errorf("setup 100 ms slower: %s", v.text)
	}
}
