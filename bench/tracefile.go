package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/obs"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// resimSamples is how many programs a tracefile-h2p run re-simulates
// through the reference path after the timed phase.
const resimSamples = 3

// runTracefileH2P is the `mbpsim -tracefile` plus `mbpexp h2p` path:
// set-up writes every program's seeded trace to a file; each pass then
// loads every file, runs a fresh engine with the H2P tap over it and
// ranks the hard-to-predict blocks. It is the only workload that decodes
// trace files or runs with a tap enabled.
func runTracefileH2P(ctx context.Context, o *options, out *outcome) error {
	n := o.sizeOr(tracefileN)
	cfg := tracefileConfig(o.seed)
	out.prov.addConfigs(cfg)
	programs := workload.Names()
	s := harness.NewScheduler(o.nproc)
	defer s.Close()
	if o.traced {
		return runTraced(ctx, o, out, s, batteryInput{
			programs: programs, n: n, configs: []core.Config{cfg}, seeded: true, seed: o.seed,
		})
	}

	dir, err := os.MkdirTemp(o.workdir, "tracefiles-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := func(p string) string { return filepath.Join(dir, p+".trace") }

	hm := newHostMeter(o.nproc)
	var reps [][2]time.Time
	var traces []*trace.Buffer
	for k := 0; k < setupReps; k++ {
		traces = nil
		runtime.GC()
		hm.sample(1)
		t0 := time.Now()
		if traces, err = loadSuite(s, programs, func(p string) (*trace.Buffer, error) {
			tr, err := seededTrace(p, n, o.seed)
			if err != nil {
				return nil, err
			}
			return tr, saveTrace(path(p), tr)
		}); err != nil {
			return err
		}
		reps = append(reps, [2]time.Time{t0, time.Now()})
	}
	hm.sample(1)
	setups := hm.refDurations(reps)
	for i, p := range programs {
		out.prov.addTrace(p, n, traces[i])
	}
	traces = nil // the timed phase reads the files only
	runtime.GC()
	or, err := newOracle(o, out, o.workload)
	if err != nil {
		return err
	}

	// A job's latency is the time one trace file takes, from decoding
	// to ranking.
	type timed struct {
		hr     h2pResult
		t0, t1 time.Time
	}
	var passes []pass
	var jobs [][2]time.Time
	last := make([]h2pResult, len(programs))
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < o.seconds {
		if err := ctx.Err(); err != nil {
			return err
		}
		hm.tick()
		p := pass{t0: time.Now()}
		futs := make([]*harness.Future[timed], len(programs))
		for i, prog := range programs {
			prog := prog
			futs[i] = harness.Submit(s, func() (timed, error) {
				t0 := time.Now()
				hr, err := loadAndRank(path(prog), cfg)
				return timed{hr, t0, time.Now()}, err
			})
		}
		for i, f := range futs {
			j, err := f.Wait()
			if err == nil {
				err = or.check(cellKey(cfg, programs[i]), digestOf(j.hr))
				p.instr += j.hr.Result.Instructions
				p.done++
				last[i] = j.hr
				jobs = append(jobs, [2]time.Time{j.t0, j.t1})
			}
			out.check(err)
		}
		p.t1 = time.Now()
		passes = append(passes, p)
	}
	hm.sample(1)
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}

	r := newRNG(o.seed, "resim-"+o.workload)
	for k := 0; k < resimSamples; k++ {
		i := r.Intn(len(programs))
		tr, err := seededTrace(programs[i], n, o.seed)
		if err == nil {
			var want h2pResult
			if want, err = refH2P(cfg, tr); err == nil && digestOf(want) != digestOf(last[i]) {
				err = fmt.Errorf("%s: file-loaded H2P result differs from the in-memory re-simulation", cellKey(cfg, programs[i]))
			}
		}
		out.check(err)
	}

	lats := hm.refDurations(jobs)
	for i := range lats {
		lats[i] *= 1e3
	}
	setE2E(out, hm, passes, lats, setups, rss)
	out.note("over %d trace files at n=%d", len(programs), n)
	return nil
}

// loadAndRank is one tracefile-h2p job: decode the file, run a fresh
// engine with the H2P tap and rank the worst blocks.
func loadAndRank(path string, cfg core.Config) (h2pResult, error) {
	tr, err := loadTrace(path)
	if err != nil {
		return h2pResult{}, err
	}
	e, err := core.New(cfg)
	if err != nil {
		return h2pResult{}, err
	}
	h := obs.NewH2P()
	e.SetObserver(h)
	return h2pResultOf(e.Run(tr), h), nil
}

func saveTrace(path string, tr *trace.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

func loadTrace(path string) (*trace.Buffer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}
