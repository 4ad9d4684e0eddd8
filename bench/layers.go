package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/icache"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
	"mbbp/internal/pht"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// The traced run. It repeats a workload's seeded work with the layers
// driven one by one from this package — as harness.Submit jobs on the
// same scheduler — each call wrapped in a span, and derives the
// per-layer metrics from the spans and from counters read at the same
// boundaries. Spans inside the program are a later change; these are
// recorded around the public calls into each layer.

// batteryInput is the seeded work a traced run repeats.
type batteryInput struct {
	programs []string
	n        uint64
	configs  []core.Config
	seeded   bool // capture with TraceSeeded(n, seed), as tracefile-h2p does
	seed     int64
}

// runTraced is the traced run of a batch workload: the battery over the
// workload's own inputs, then a short service probe for the server
// layers the workload does not exercise.
func runTraced(ctx context.Context, o *options, out *outcome, s *harness.Scheduler, in batteryInput) error {
	if err := runBattery(ctx, o, out, s, in); err != nil {
		return err
	}
	return serviceProbe(ctx, o, out)
}

// passStats is one traced or untraced pass of the battery.
type passStats struct {
	wall   time.Duration
	maxJob time.Duration
	instr  uint64 // simulated instructions x configurations
	blocks uint64 // fetch blocks x configurations
	folds  int
	fold   time.Duration
	pool   harness.PoolStats // counters accumulated during the pass

	// Engine time and work by shape: single engines (instructions) and
	// lane sets (instructions x lanes).
	runD, lanesD time.Duration
	runI, lanesI uint64
}

func (p passStats) tput() float64 { return float64(p.instr) / p.wall.Seconds() }

// laneJob is one (geometry group, program) job's output.
type laneJob struct {
	rs []metrics.Result
	d  time.Duration
}

// runPass runs every geometry group over every trace as one job per
// (group, program) — one LaneSet per multi-config group, one Engine per
// singleton — then folds each configuration's results in suite order.
// With a recorder each job and each fold is a span. After the timing,
// every result goes to check.
func runPass(s *harness.Scheduler, programs []string, traces []*trace.Buffer, groups [][]core.Config,
	rec *recorder, check func(cfg core.Config, program string, r metrics.Result)) (passStats, error) {
	fp := make([]bool, len(programs))
	for i, p := range programs {
		b, err := workload.Get(p)
		if err != nil {
			return passStats{}, err
		}
		fp[i] = b.Suite == workload.FP
	}
	before := s.Stats()
	pass := rec.start("harness.pass", 0, "")
	t0 := time.Now()
	futs := make([][]*harness.Future[laneJob], len(groups))
	for gi, g := range groups {
		futs[gi] = make([]*harness.Future[laneJob], len(programs))
		for pi := range programs {
			gi, g, pi := gi, g, pi
			futs[gi][pi] = harness.Submit(s, func() (laneJob, error) {
				job := fmt.Sprintf("g%d/%s", gi, programs[pi])
				tr := traces[pi].Clone()
				if len(g) == 1 {
					e, err := core.New(g[0])
					if err != nil {
						return laneJob{}, err
					}
					id, t := rec.start("core.run", pass, job), time.Now()
					r := e.Run(tr)
					d := time.Since(t)
					rec.end(id)
					return laneJob{rs: []metrics.Result{r}, d: d}, nil
				}
				ls, err := core.NewLanes(g)
				if err != nil {
					return laneJob{}, err
				}
				id, t := rec.start("core.lanes", pass, job), time.Now()
				rs := ls.Run(tr)
				d := time.Since(t)
				rec.end(id)
				return laneJob{rs: rs, d: d}, nil
			})
		}
	}
	var ps passStats
	jobs := make([][]laneJob, len(groups))
	for gi := range groups {
		for _, f := range futs[gi] {
			j, err := f.Wait()
			if err != nil {
				return passStats{}, err
			}
			jobs[gi] = append(jobs[gi], j)
			ps.maxJob = max(ps.maxJob, j.d)
			if len(j.rs) == 1 {
				ps.runD += j.d
				ps.runI += j.rs[0].Instructions
			} else {
				ps.lanesD += j.d
				ps.lanesI += j.rs[0].Instructions * uint64(len(j.rs))
			}
		}
	}
	for gi, g := range groups {
		for li, cfg := range g {
			id, t := rec.start("harness.fold", pass, cfg.String()), time.Now()
			var intSum, fpSum metrics.Result
			for pi := range programs {
				if r := jobs[gi][pi].rs[li]; fp[pi] {
					fpSum.Add(r)
				} else {
					intSum.Add(r)
				}
			}
			ps.fold += time.Since(t)
			rec.end(id)
			ps.folds++
			ps.instr += intSum.Instructions + fpSum.Instructions
		}
	}
	ps.wall = time.Since(t0)
	rec.end(pass)
	for gi, g := range groups {
		for li, cfg := range g {
			for pi, p := range programs {
				r := jobs[gi][pi].rs[li]
				ps.blocks += r.Blocks
				check(cfg, p, r)
			}
		}
	}
	after := s.Stats()
	ps.pool = harness.PoolStats{
		Steals:     after.Steals - before.Steals,
		Parks:      after.Parks - before.Parks,
		WorkerBusy: []time.Duration{after.BusyTotal() - before.BusyTotal()},
		Workers:    after.Workers,
	}
	return ps, nil
}

// groupByGeometry splits configurations into lane groups, in first
// appearance order, the way harness.Batch groups them.
func groupByGeometry(cfgs []core.Config) [][]core.Config {
	var order []icache.Geometry
	by := map[icache.Geometry][]core.Config{}
	for _, cfg := range cfgs {
		if _, ok := by[cfg.Geometry]; !ok {
			order = append(order, cfg.Geometry)
		}
		by[cfg.Geometry] = append(by[cfg.Geometry], cfg)
	}
	out := make([][]core.Config, len(order))
	for i, g := range order {
		out[i] = by[g]
	}
	return out
}

// probeLanes is a four-lane group of history-length variants of cfg,
// for workloads whose own grid has no multi-lane group.
func probeLanes(cfg core.Config) []core.Config {
	out := make([]core.Config, 4)
	for i := range out {
		out[i] = cfg
		out[i].HistoryBits = 8 + i
	}
	return out
}

// runBattery measures every batch layer over the workload's inputs.
func runBattery(ctx context.Context, o *options, out *outcome, s *harness.Scheduler, in batteryInput) error {
	rec := out.spans
	cfg0 := in.configs[0]

	// cpu: trace capture by interpretation, one job per program.
	traces, err := loadSuite(s, in.programs, func(p string) (*trace.Buffer, error) {
		id := rec.start("cpu.capture", 0, p)
		defer rec.end(id)
		if in.seeded {
			return seededTrace(p, in.n, in.seed)
		}
		b, err := workload.Get(p)
		if err != nil {
			return nil, err
		}
		return b.Trace(in.n)
	})
	if err != nil {
		return err
	}
	var records uint64
	for i, tr := range traces {
		records += tr.Len()
		out.prov.addTrace(in.programs[i], in.n, tr)
	}
	out.set("cpu.capture_ns_per_instr", float64(spanTotal(rec, "cpu.capture"))/float64(records), len(traces))

	// core and harness: alternate untraced and traced passes of the
	// workload's own grid; the throughput ratio is the tracing overhead.
	// Every pass, and each engine shape, must give every (configuration,
	// program) the result it had the first time.
	or := &oracle{first: map[string]string{}}
	check := func(cfg core.Config, program string, r metrics.Result) {
		out.check(or.check(cellKey(cfg, program), digestOf(r)))
	}
	groups := groupByGeometry(in.configs)
	rt0 := readRuntime()
	var plain, traced []passStats
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < o.seconds {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := runPass(s, in.programs, traces, groups, nil, check)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		if p, err = runPass(s, in.programs, traces, groups, rec, check); err != nil {
			return err
		}
		traced = append(traced, p)
	}
	rt1 := readRuntime()
	setPassLayers(out, plain, traced, len(in.configs), len(groups), rt0, rt1)

	// Cover both engine shapes even when the grid has only one.
	single, multi := false, []core.Config(nil)
	for _, g := range groups {
		if len(g) == 1 {
			single = true
		} else if len(g) > len(multi) {
			multi = g
		}
	}
	engine := traced
	if !single {
		p, err := runPass(s, in.programs, traces, [][]core.Config{{cfg0}}, rec, check)
		if err != nil {
			return err
		}
		engine = append(engine, p)
	}
	if multi == nil {
		multi = probeLanes(cfg0)
		p, err := runPass(s, in.programs, traces, [][]core.Config{multi}, rec, check)
		if err != nil {
			return err
		}
		engine = append(engine, p)
	}
	setEngineLayers(out, engine)

	if err := walkLayer(s, out, in.programs, traces); err != nil {
		return err
	}
	if err := predictorLayer(s, out, in, traces); err != nil {
		return err
	}
	if err := allocLayer(out, in, traces, cfg0, multi); err != nil {
		return err
	}
	if err := tapLayer(s, out, in.programs, traces, cfg0); err != nil {
		return err
	}
	if err := fileLayer(o, out, in.programs, traces); err != nil {
		return err
	}
	hashLayer(out, in.configs)
	return nil
}

// spanTotal sums the durations of every span named name.
func spanTotal(rec *recorder, name string) time.Duration {
	for _, t := range rec.totals() {
		if t.Name == name {
			return time.Duration(t.Total * float64(time.Millisecond))
		}
	}
	return 0
}

// runtimeSample is the process's cumulative GC CPU, total CPU and heap
// allocation at one instant.
type runtimeSample struct{ gcCPU, cpu, alloc float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// setPassLayers derives the harness, go and tracing-overhead metrics
// from the alternating passes.
func setPassLayers(out *outcome, plain, traced []passStats, configs, groups int, rt0, rt1 runtimeSample) {
	var wall time.Duration
	var busy time.Duration
	var steals, parks uint64
	var tails, plainT, tracedT []float64
	var fold time.Duration
	var instr, blocks uint64
	folds := 0
	workers := 1
	for i, p := range traced {
		wall += p.wall
		busy += p.pool.BusyTotal()
		steals += p.pool.Steals
		parks += p.pool.Parks
		workers = max(p.pool.Workers, 1)
		tails = append(tails, float64(p.maxJob)/float64(p.wall))
		fold += p.fold
		folds += p.folds
		instr += p.instr
		blocks += p.blocks
		tracedT = append(tracedT, p.tput())
		plainT = append(plainT, plain[i].tput())
	}
	n := len(traced)
	out.set("harness.pool_busy_frac", float64(busy)/float64(wall)/float64(workers), n)
	out.set("harness.steals", float64(steals)/float64(n), n)
	out.set("harness.parks", float64(parks)/float64(n), n)
	out.set("harness.tail_job_frac", median(tails), n)
	out.set("harness.lanes_per_walk", float64(configs)/float64(groups), 1)
	out.set("core.blocks_per_instr", float64(blocks)/float64(instr), n)
	out.set("harness.fold_us", float64(fold)/float64(folds)/float64(time.Microsecond), folds)
	out.set("bench.tracing_overhead_frac", 1-median(tracedT)/median(plainT), 2*n)
	secs := 0.0
	for i := range traced {
		secs += traced[i].wall.Seconds() + plain[i].wall.Seconds()
	}
	if d := rt1.cpu - rt0.cpu; d > 0 {
		out.set("go.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/d, 2*n)
	} else {
		out.set("go.gc_cpu_frac", 0, 2*n)
	}
	out.set("go.alloc_mb_per_s", (rt1.alloc-rt0.alloc)/secs/1e6, 2*n)
}

// setEngineLayers derives the engine metrics from the traced passes.
func setEngineLayers(out *outcome, passes []passStats) {
	var p passStats
	runs, lanes := 0, 0
	for _, q := range passes {
		p.runD += q.runD
		p.runI += q.runI
		p.lanesD += q.lanesD
		p.lanesI += q.lanesI
		if q.runI > 0 {
			runs++
		}
		if q.lanesI > 0 {
			lanes++
		}
	}
	out.set("core.run_ns_per_instr", float64(p.runD)/float64(p.runI), runs)
	out.set("core.lanes_ns_per_instr_lane", float64(p.lanesD)/float64(p.lanesI), lanes)
}

// walkLayer times a bare Clone and Next walk of every trace.
func walkLayer(s *harness.Scheduler, out *outcome, programs []string, traces []*trace.Buffer) error {
	rec := out.spans
	futs := make([]*harness.Future[uint64], len(traces))
	for i, tr := range traces {
		i, tr := i, tr
		futs[i] = harness.Submit(s, func() (uint64, error) {
			id := rec.start("trace.walk", 0, programs[i])
			c := tr.Clone()
			var k uint64
			for {
				if _, ok := c.Next(); !ok {
					break
				}
				k++
			}
			rec.end(id)
			if k != tr.Len() {
				return k, fmt.Errorf("walk of %s read %d of %d records", programs[i], k, tr.Len())
			}
			return k, nil
		})
	}
	var records uint64
	for _, f := range futs {
		k, err := f.Wait()
		out.check(err)
		records += k
	}
	out.set("trace.walk_ns_per_instr", float64(spanTotal(rec, "trace.walk"))/float64(records), len(traces))
	return nil
}

// replayTrace is a program's conditional-branch stream cut into fetch
// blocks of the normal W=8 geometry, ready to feed a predictor.
type replayTrace struct {
	blocks []replayBlock
	conds  []replayCond
}

type replayBlock struct {
	start       uint32
	first, last int32 // conds[first:last]
	n           int
	bits        uint32
}

type replayCond struct {
	pos   int
	taken bool
}

// buildReplay cuts tr into blocks the way the engine's block reader
// does for a normal geometry of width w: a block ends at a taken
// transfer, at a line boundary or after w instructions.
func buildReplay(tr *trace.Buffer, w int) *replayTrace {
	rt := &replayTrace{}
	c := tr.Clone()
	var cur replayBlock
	open, count := false, 0
	var prev uint32
	closeBlock := func() {
		cur.last = int32(len(rt.conds))
		rt.blocks = append(rt.blocks, cur)
		open = false
	}
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		if open && (r.PC != prev+1 || r.PC%uint32(w) == 0 || count == w) {
			closeBlock()
		}
		if !open {
			cur = replayBlock{start: r.PC, first: int32(len(rt.conds))}
			open, count = true, 0
		}
		count++
		if r.Class == isa.ClassCond {
			rt.conds = append(rt.conds, replayCond{pos: int(r.PC % uint32(w)), taken: r.Taken})
			cur.n++
			cur.bits <<= 1
			if r.Taken {
				cur.bits |= 1
			}
		}
		prev = r.PC
		if r.Taken {
			closeBlock()
		}
	}
	if open {
		closeBlock()
	}
	return rt
}

// replay feeds the stream through p the way the engine drives a
// predictor (Lookup, Taken, Update per branch, Shift per block) and
// returns the number of correct predictions.
func replay(p core.Predictor, ghr *pht.GHR, rt *replayTrace) int {
	hits := 0
	for _, b := range rt.blocks {
		p.Lookup(ghr.Value(), b.start)
		for _, c := range rt.conds[b.first:b.last] {
			if p.Taken(c.pos) == c.taken {
				hits++
			}
			p.Update(c.pos, c.taken)
		}
		p.Shift(b.n, b.bits)
		ghr.ShiftPacked(b.n, b.bits)
	}
	return hits
}

// predictorLayer replays the conditional branches of gcc and swim
// through the paper and TAGE predictors built by core.NewPredictor.
func predictorLayer(s *harness.Scheduler, out *outcome, in batteryInput, traces []*trace.Buffer) error {
	rec := out.spans
	var rts []*replayTrace
	for _, p := range []string{"gcc", "swim"} {
		var tr *trace.Buffer
		for i, name := range in.programs {
			if name == p {
				tr = traces[i]
			}
		}
		if tr == nil {
			b, err := workload.Get(p)
			if err != nil {
				return err
			}
			if tr, err = b.Trace(max(in.n, 200_000)); err != nil {
				return err
			}
		}
		rts = append(rts, buildReplay(tr, 8))
	}
	paper := core.DefaultConfig()
	tage := core.DefaultConfig()
	tage.Predictor = core.PredictorTAGE
	type job struct {
		name     string
		branches int
	}
	var futs []*harness.Future[job]
	for _, kind := range []struct {
		name string
		cfg  core.Config
	}{{"predictor.paper", paper}, {"predictor.tage", tage}} {
		for _, rt := range rts {
			kind, rt := kind, rt
			futs = append(futs, harness.Submit(s, func() (job, error) {
				p, err := core.NewPredictor(kind.cfg)
				if err != nil {
					return job{}, err
				}
				ghr := pht.NewGHR(kind.cfg.HistoryBits)
				reps := max(1, 2_000_000/max(len(rt.conds), 1))
				id := rec.start(kind.name, 0, "")
				hits := 0
				for r := 0; r < reps; r++ {
					hits += replay(p, ghr, rt)
				}
				rec.end(id)
				if hits == 0 {
					return job{}, fmt.Errorf("%s predicted nothing correctly", kind.name)
				}
				return job{kind.name, reps * len(rt.conds)}, nil
			}))
		}
	}
	branches := map[string]int{}
	for _, f := range futs {
		j, err := f.Wait()
		out.check(err)
		branches[j.name] += j.branches
	}
	for _, name := range []string{"predictor.paper", "predictor.tage"} {
		out.set(name+"_ns_per_branch", float64(spanTotal(rec, name))/float64(branches[name]), len(rts))
	}
	return nil
}

// allocLayer is the serial one-worker section: heap allocations counted
// around one engine run and one lane-set run over the same trace.
func allocLayer(out *outcome, in batteryInput, traces []*trace.Buffer, cfg0 core.Config, multi []core.Config) error {
	tr := traces[0]
	for i, p := range in.programs {
		if p == "gcc" {
			tr = traces[i]
		}
	}
	var m0, m1 runtime.MemStats
	e, err := core.New(cfg0)
	if err != nil {
		return err
	}
	c := tr.Clone()
	runtime.ReadMemStats(&m0)
	r := e.Run(c)
	runtime.ReadMemStats(&m1)
	out.set("core.run_allocs_per_block", float64(m1.Mallocs-m0.Mallocs)/float64(r.Blocks), 1)

	ls, err := core.NewLanes(multi)
	if err != nil {
		return err
	}
	c = tr.Clone()
	runtime.ReadMemStats(&m0)
	rs := ls.Run(c)
	runtime.ReadMemStats(&m1)
	out.set("core.lanes_allocs_per_block", float64(m1.Mallocs-m0.Mallocs)/float64(rs[0].Blocks), 1)
	return nil
}

// tapReps is how many times tapLayer runs each program with the tap off
// and on; the fastest of each is kept, since the difference between two
// single runs is smaller than the host's noise.
const tapReps = 3

// tapLayer runs every third program with the H2P tap off and on, in
// turn; the difference of the fastest runs per block is the tap's cost.
// Taps must never change results, which is checked too.
func tapLayer(s *harness.Scheduler, out *outcome, programs []string, traces []*trace.Buffer, cfg core.Config) error {
	rec := out.spans
	type job struct {
		blocks  uint64
		sites   int
		off, on time.Duration
	}
	var futs []*harness.Future[job]
	for i := 0; i < len(traces); i += 3 {
		i := i
		futs = append(futs, harness.Submit(s, func() (job, error) {
			j := job{off: time.Hour, on: time.Hour}
			for k := 0; k < tapReps; k++ {
				off, err := core.New(cfg)
				if err != nil {
					return job{}, err
				}
				on, err := core.New(cfg)
				if err != nil {
					return job{}, err
				}
				h := obs.NewH2P()
				on.SetObserver(h)
				id := rec.start("obs.tap_off", 0, programs[i])
				t := time.Now()
				r0 := off.Run(traces[i].Clone())
				j.off = min(j.off, time.Since(t))
				rec.end(id)
				id = rec.start("obs.tap_on", 0, programs[i])
				t = time.Now()
				r1 := on.Run(traces[i].Clone())
				j.on = min(j.on, time.Since(t))
				rec.end(id)
				if r0 != r1 {
					return job{}, fmt.Errorf("%s: the H2P tap changed the result", programs[i])
				}
				j.blocks, j.sites = r0.Blocks, h.Sites()
			}
			return j, nil
		}))
	}
	var blocks uint64
	var diff time.Duration
	sites := 0
	for _, f := range futs {
		j, err := f.Wait()
		out.check(err)
		blocks += j.blocks
		sites += j.sites
		diff += j.on - j.off
	}
	out.set("obs.h2p_ns_per_block", float64(diff)/float64(blocks), len(futs))
	out.set("obs.h2p_sites", float64(sites), len(futs))
	return nil
}

// fileLayer saves and loads every trace serially, counting the bytes
// Load allocates, and checks that each file reads back the same records.
func fileLayer(o *options, out *outcome, programs []string, traces []*trace.Buffer) error {
	rec := out.spans
	dir, err := os.MkdirTemp(o.workdir, "battery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var records uint64
	var allocated uint64
	var m0, m1 runtime.MemStats
	for i, tr := range traces {
		path := filepath.Join(dir, programs[i]+".trace")
		id := rec.start("trace.save", 0, programs[i])
		err := saveTrace(path, tr)
		rec.end(id)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		id = rec.start("trace.load", 0, programs[i])
		back, err := loadTrace(path)
		rec.end(id)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		allocated += m1.TotalAlloc - m0.TotalAlloc
		records += tr.Len()
		if recordsHash(back) != recordsHash(tr) {
			err = fmt.Errorf("%s: trace file read back different records", programs[i])
		}
		out.check(err)
		os.Remove(path)
	}
	out.set("trace.save_ns_per_record", float64(spanTotal(rec, "trace.save"))/float64(records), len(traces))
	out.set("trace.load_ns_per_record", float64(spanTotal(rec, "trace.load"))/float64(records), len(traces))
	out.set("trace.load_bytes_per_record", float64(allocated)/float64(records), len(traces))
	return nil
}

// hashLayer times Config.CanonicalHash, the key step of every mbbpd
// request, on each of the workload's configurations.
func hashLayer(out *outcome, cfgs []core.Config) {
	const reps = 200
	var per []float64
	for _, cfg := range cfgs {
		id := out.spans.start("core.canonical_hash", 0, cfg.String())
		t := time.Now()
		for r := 0; r < reps; r++ {
			configHash(cfg)
		}
		per = append(per, float64(time.Since(t))/reps/float64(time.Microsecond))
		out.spans.end(id)
	}
	out.set("core.canonical_hash_us", median(per), len(per))
}

// serviceProbe runs a short closed loop against mbbpd for the server
// layers of a batch workload's traced run.
func serviceProbe(ctx context.Context, o *options, out *outcome) error {
	bin, err := ensureMbbpd(ctx, o)
	if err != nil {
		return err
	}
	sizes := serviceSizesFor(o)
	hot := hotSet(o.seed, sizes)
	sv, err := startService(ctx, bin, o.nproc)
	if err != nil {
		return err
	}
	defer sv.stop()
	refs, err := sv.warm(ctx, hot)
	if err != nil {
		return err
	}
	secs := min(max(2, o.seconds/5), o.seconds)
	lr, err := serviceLoop(ctx, sv, o, hot, refs, sizes, secs, out.spans, nil)
	if err != nil {
		return err
	}
	if err := verifyService(ctx, o, out, hot, refs, lr); err != nil {
		return err
	}
	setServiceLayers(out, lr)
	out.note("service probe: %d requests in %.2fs: %s", len(lr.replies), lr.wall, lr.mix())
	return nil
}

// runServiceBattery is the batch-layer half of service-mixed's traced
// run: the battery over the hot set's programs and configurations.
func runServiceBattery(ctx context.Context, o *options, out *outcome, hot []request) error {
	s := harness.NewScheduler(o.nproc)
	defer s.Close()
	seen := map[string]bool{}
	var cfgs []core.Config
	for _, q := range hot {
		for _, p := range q.programs {
			seen[p] = true
		}
		cfgs = append(cfgs, q.configs...)
	}
	var programs []string
	for _, p := range workload.Names() {
		if seen[p] {
			programs = append(programs, p)
		}
	}
	return runBattery(ctx, o, out, s, batteryInput{programs: programs, n: hot[0].n, configs: cfgs})
}

// setServiceLayers derives the server metrics from the replies, their
// stage trailers and the /metrics deltas; for service-mixed the go
// metrics then describe the mbbpd process.
func setServiceLayers(out *outcome, lr *loopResult) {
	stages := map[string][]float64{}
	var all, hit, miss, transport []float64
	rejected := 0
	for _, rp := range lr.replies {
		all = append(all, rp.latency())
		if rp.status == http.StatusTooManyRequests {
			rejected++
		}
		if rp.err != nil {
			continue
		}
		sum := 0.0
		for _, d := range rp.stages {
			sum += d
		}
		transport = append(transport, ms(rp.lat)-sum)
		switch rp.cache {
		case "hit":
			hit = append(hit, ms(rp.lat))
		case "miss":
			miss = append(miss, ms(rp.lat))
			for st, d := range rp.stages {
				stages[st] = append(stages[st], d)
			}
		}
	}
	for _, st := range []string{"admit", "queue", "capture", "simulate", "render"} {
		out.set("server."+st+"_ms_p50", percentile(stages[st], 0.5), len(stages[st]))
	}
	out.set("server.latency_p50_ms", percentile(all, 0.5), len(all))
	out.set("server.hit_latency_p50_ms", percentile(hit, 0.5), len(hit))
	out.set("server.transport_ms_p50", percentile(transport, 0.5), len(transport))
	out.set("server.miss_latency_p50_ms", percentile(miss, 0.5), len(miss))
	out.set("server.miss_latency_p95_ms", percentile(miss, 0.95), len(miss))
	out.set("server.rejected_429", float64(rejected), len(lr.replies))
	hits := metricDelta(lr.before, lr.after, "result_cache_hits")
	looked := hits + metricDelta(lr.before, lr.after, "result_cache_misses") +
		metricDelta(lr.before, lr.after, "result_cache_coalesced")
	out.set("server.result_cache_hit_ratio", hits/looked, len(lr.replies))
	th := metricDelta(lr.before, lr.after, "trace_cache_hits")
	out.set("trace.cache_hit_ratio", th/(th+metricDelta(lr.before, lr.after, "trace_cache_misses")), len(lr.replies))
	if out.prov.Workload == "service-mixed" {
		alloc := memstat(lr.varsPost, "TotalAlloc") - memstat(lr.varsPre, "TotalAlloc")
		out.set("go.gc_cpu_frac", memstat(lr.varsPost, "GCCPUFraction"), len(lr.replies))
		out.set("go.alloc_mb_per_s", alloc/lr.wall/1e6, len(lr.replies))
	}
}
