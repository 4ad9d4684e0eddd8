package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"mbbp"
	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
	"mbbp/internal/server"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// The correctness oracle. Every simulated result a workload produces is
// digested and checked three ways: against the same cell of the run's
// first pass, against a serial one-engine-per-configuration re-simulation
// through the public mbbp entry points (a seeded sample, after the timed
// phase), and, for the committed seed at default sizes, against the
// digests under testdata/expected, which that same serial path
// generated (-update). The serial path shares no lanes, batches or
// caches with the paths under test.

// cellKey names one (configuration, program) result.
func cellKey(cfg core.Config, program string) string {
	return configHash(cfg)[:16] + "/" + program
}

// digestOf is the sha256 of v's JSON encoding.
func digestOf(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: digesting %T: %v", v, err))
	}
	return bytesDigest(raw)
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// expectedFile is one committed digest file.
type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	N        uint64            `json:"n"` // 0 = the workload's default sizes
	Digests  map[string]string `json:"digests"`
}

func expectedPath(o *options, workload string) string {
	return filepath.Join(o.root, "bench", "testdata", "expected", workload+".json")
}

// oracle checks result digests as a run produces them.
type oracle struct {
	want  map[string]string // committed digests; nil when none apply
	first map[string]string // digest of each key when first seen this run
}

// newOracle loads the committed digests of workload that apply to this
// run: same seed, default sizes.
func newOracle(o *options, out *outcome, workload string) (*oracle, error) {
	or := &oracle{first: map[string]string{}}
	path := expectedPath(o, workload)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		out.note("oracle: no committed digests for %s", workload)
		return or, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Seed == o.seed && f.N == o.n {
		or.want = f.Digests
		out.note("oracle: checking against %d committed %s digests (seed %d)", len(f.Digests), workload, f.Seed)
	} else {
		out.note("oracle: committed digests are for seed %d n=%s; checking re-simulated samples only", f.Seed, sizeLabel(f.N))
	}
	return or, nil
}

// check compares the digest d of key with its first value this run and
// with the committed digest.
func (or *oracle) check(key, d string) error {
	if prev, ok := or.first[key]; ok && prev != d {
		return fmt.Errorf("%s: result differs from the run's first pass", key)
	}
	or.first[key] = d
	if or.want == nil {
		return nil
	}
	want, ok := or.want[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed digest", key)
	case want != d:
		return fmt.Errorf("%s: digest %.16s differs from committed %.16s", key, d, want)
	}
	return nil
}

// refRun is the reference simulation of one (configuration, trace).
func refRun(ctx context.Context, cfg core.Config, tr *trace.Buffer) (metrics.Result, error) {
	return mbbp.Run(ctx, cfg, tr.Clone())
}

// h2pResult is what tracefile-h2p computes per program.
type h2pResult struct {
	Result   metrics.Result
	Top      []obs.H2PSite
	Coverage []float64
	Sites    int
}

func h2pResultOf(r metrics.Result, h *obs.H2P) h2pResult {
	return h2pResult{Result: r, Top: h.Top(10), Coverage: h.Coverage(10), Sites: h.Sites()}
}

// refH2P is the reference of one tracefile-h2p program: a fresh public
// engine with the H2P tap over the in-memory trace.
func refH2P(cfg core.Config, tr *trace.Buffer) (h2pResult, error) {
	e, err := mbbp.NewEngineFromConfig(cfg)
	if err != nil {
		return h2pResult{}, err
	}
	h := obs.NewH2P()
	e.SetObserver(h)
	return h2pResultOf(e.Run(tr.Clone()), h), nil
}

// traceKey names one captured trace.
type traceKey struct {
	program string
	n       uint64
}

// traceStore captures suite traces on demand, once each.
type traceStore map[traceKey]*trace.Buffer

func (ts traceStore) get(program string, n uint64) (*trace.Buffer, error) {
	k := traceKey{program, n}
	if b := ts[k]; b != nil {
		return b, nil
	}
	b, err := workload.Get(program)
	if err != nil {
		return nil, err
	}
	tr, err := b.Trace(n)
	if err != nil {
		return nil, err
	}
	ts[k] = tr
	return tr, nil
}

// refBody renders the body mbbpd must answer q with, from reference
// simulations folded the way the harness folds suites.
func refBody(ctx context.Context, q request, traces traceStore) ([]byte, error) {
	opts := harness.Options{Instructions: q.n, Programs: q.programs}
	var sweeps []server.SweepResponse
	for _, cfg := range q.configs {
		res := &harness.SuiteResult{Per: map[string]metrics.Result{}}
		res.Int.Program, res.FP.Program = "CINT95", "CFP95"
		for _, p := range q.programs {
			tr, err := traces.get(p, q.n)
			if err != nil {
				return nil, err
			}
			r, err := refRun(ctx, cfg, tr)
			if err != nil {
				return nil, err
			}
			res.Per[p] = r
			b, err := workload.Get(p)
			if err != nil {
				return nil, err
			}
			if b.Suite == workload.FP {
				res.FP.Add(r)
			} else {
				res.Int.Add(r)
			}
		}
		sweeps = append(sweeps, server.BuildSweepResponse(cfg, opts, res))
	}
	if q.class == "multi" {
		return server.MarshalMultiResponse(server.MultiSweepResponse{Sweeps: sweeps})
	}
	return server.MarshalResponse(sweeps[0])
}

// hotKey names hot body i in the committed digests.
func hotKey(i int, q request) string {
	return fmt.Sprintf("hot%d/%s", i, configHash(q.configs[0])[:16])
}

// updateExpected regenerates the committed digests of o.workload with
// the reference path alone.
func updateExpected(ctx context.Context, o *options) error {
	digests := map[string]string{}
	programs := workload.Names()
	traces := traceStore{}
	switch o.workload {
	case "sweep-lanes", "sweep-geometries":
		cfgs, n := lanesConfigs(o.seed), o.sizeOr(lanesN)
		if o.workload == "sweep-geometries" {
			cfgs, n = geometryConfigs(o.seed), o.sizeOr(geometriesN)
		}
		for _, p := range programs {
			tr, err := traces.get(p, n)
			if err != nil {
				return err
			}
			for _, cfg := range cfgs {
				r, err := refRun(ctx, cfg, tr)
				if err != nil {
					return err
				}
				digests[cellKey(cfg, p)] = digestOf(r)
			}
			delete(traces, traceKey{p, n})
		}
	case "tracefile-h2p":
		cfg, n := tracefileConfig(o.seed), o.sizeOr(tracefileN)
		for _, p := range programs {
			tr, err := seededTrace(p, n, o.seed)
			if err != nil {
				return err
			}
			hr, err := refH2P(cfg, tr)
			if err != nil {
				return err
			}
			digests[cellKey(cfg, p)] = digestOf(hr)
		}
	case "service-mixed":
		for i, q := range hotSet(o.seed, serviceSizesFor(o)) {
			body, err := refBody(ctx, q, traces)
			if err != nil {
				return err
			}
			digests[hotKey(i, q)] = bytesDigest(body)
		}
	default:
		return fmt.Errorf("no digests defined for %q", o.workload)
	}
	raw, err := json.MarshalIndent(expectedFile{Workload: o.workload, Seed: o.seed, N: o.n, Digests: digests}, "", "  ")
	if err != nil {
		return err
	}
	path := expectedPath(o, o.workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(digests), path)
	return nil
}

// seededTrace captures program's trace with its pseudo-random seed
// replaced, the input of tracefile-h2p.
func seededTrace(program string, n uint64, seed int64) (*trace.Buffer, error) {
	b, err := workload.Get(program)
	if err != nil {
		return nil, err
	}
	return b.TraceSeeded(n, seed)
}
