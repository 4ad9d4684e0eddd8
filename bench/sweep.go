package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// Default per-program trace lengths: the workload definitions' sizes.
// Geometries and tracefile use the simulator's default of 1M; lanes uses
// half of it, since its pass runs 32 configurations instead of 9.
const (
	lanesN      = 500_000
	geometriesN = 1_000_000
	tracefileN  = 1_000_000
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// runSweepLanes: one trace walk feeds 32 lanes, so the predictor and
// lane hot loop does nearly all the work — the research-sweep path.
func runSweepLanes(ctx context.Context, o *options, out *outcome) error {
	return runSweep(ctx, o, out, lanesConfigs(o.seed), o.sizeOr(lanesN))
}

// runSweepGeometries: every configuration is its own trace walk, so
// trace walking, block formation and shared-block derivation carry the
// load that sweep-lanes amortizes away.
func runSweepGeometries(ctx context.Context, o *options, out *outcome) error {
	return runSweep(ctx, o, out, geometryConfigs(o.seed), o.sizeOr(geometriesN))
}

// runSweep times passes of a configuration grid over the whole suite
// through the harness's lane batches: LoadTracesOn, NewBatch,
// RunConfig, Flush and SuitePromise.WaitCtx. The sweep workloads use the
// suite's pinned program inputs (the trace set has no seeded
// constructor); the seed varies the configuration grid.
func runSweep(ctx context.Context, o *options, out *outcome, cfgs []core.Config, n uint64) error {
	s := harness.NewScheduler(o.nproc)
	defer s.Close()
	out.prov.addConfigs(cfgs...)
	programs := workload.Names()
	if o.traced {
		return runTraced(ctx, o, out, s, batteryInput{
			programs: programs, n: n, configs: cfgs,
		})
	}

	hm := newHostMeter(o.nproc)
	var ts *harness.TraceSet
	var reps [][2]time.Time
	for k := 0; k < setupReps; k++ {
		ts = nil
		runtime.GC()
		hm.sample(1)
		t0 := time.Now()
		var err error
		if ts, err = harness.LoadTracesOn(s, harness.Options{Instructions: n}); err != nil {
			return err
		}
		reps = append(reps, [2]time.Time{t0, time.Now()})
	}
	hm.sample(1)
	setups := hm.refDurations(reps)
	for _, p := range programs {
		out.prov.addTrace(p, n, ts.Trace(p))
	}
	or, err := newOracle(o, out, o.workload)
	if err != nil {
		return err
	}

	var passes []pass
	var last []*harness.SuiteResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < o.seconds {
		if err := ctx.Err(); err != nil {
			return err
		}
		hm.tick()
		p := pass{t0: time.Now()}
		b := harness.NewBatch(s, ts)
		ps := make([]*harness.SuitePromise, len(cfgs))
		for i, cfg := range cfgs {
			ps[i] = b.RunConfig(cfg)
		}
		b.Flush()
		res := make([]*harness.SuiteResult, len(cfgs))
		errs := make([]error, len(cfgs))
		for i := range ps {
			res[i], errs[i] = ps[i].WaitCtx(ctx)
		}
		p.t1 = time.Now()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				for range programs {
					out.check(fmt.Errorf("%s: %w", cfg, errs[i]))
				}
				continue
			}
			p.instr += res[i].Int.Instructions + res[i].FP.Instructions
			for _, prog := range programs {
				out.check(or.check(cellKey(cfg, prog), digestOf(res[i].Per[prog])))
			}
			p.done += len(programs)
		}
		passes = append(passes, p)
		last = res
	}
	hm.sample(1)
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}

	// Every configuration is re-simulated on one seeded program, so a
	// fault confined to one lane cannot hide behind the sample.
	r := newRNG(o.seed, "resim-"+o.workload)
	for i, cfg := range cfgs {
		p := programs[r.Intn(len(programs))]
		want, err := refRun(ctx, cfg, ts.Trace(p))
		if err == nil && last[i] != nil && last[i].Per[p] != want {
			err = fmt.Errorf("%s: batch result differs from the serial re-simulation", cellKey(cfg, p))
		}
		out.check(err)
	}

	setE2E(out, hm, passes, nil, setups, rss)
	out.note("over %d configs x %d programs at n=%d", len(cfgs), len(programs), n)
	return nil
}

// loadSuite captures the programs' traces on s, one job each.
func loadSuite(s *harness.Scheduler, programs []string, capture func(p string) (*trace.Buffer, error)) ([]*trace.Buffer, error) {
	futs := make([]*harness.Future[*trace.Buffer], len(programs))
	for i, p := range programs {
		p := p
		futs[i] = harness.Submit(s, func() (*trace.Buffer, error) { return capture(p) })
	}
	out := make([]*trace.Buffer, len(programs))
	for i, f := range futs {
		tr, err := f.Wait()
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}
