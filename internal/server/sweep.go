package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
	"mbbp/internal/workload"
)

// SweepRequest is the body of POST /v1/sweep: one configuration run
// over a set of workload programs for a given dynamic instruction
// count — exactly the (config × workload × n) unit the CLI runs.
type SweepRequest struct {
	// Config is a core.Config JSON document (the same schema
	// mbpsim -config reads, unknown fields rejected); omitted fields
	// take the paper's §4 defaults, and an omitted Config is the
	// default configuration outright.
	Config json.RawMessage `json:"config,omitempty"`
	// Configs submits several configurations as one request; the
	// response is a MultiSweepResponse whose sweeps correspond 1:1 and
	// are each byte-identical to the single-config response for that
	// entry. Configurations sharing a cache geometry run as lockstep
	// lanes over one trace walk per program (core.LaneSet), so a
	// 20-config comparison costs about one simulation. Mutually
	// exclusive with Config; not available with NDJSON streaming.
	Configs []json.RawMessage `json:"configs,omitempty"`
	// Programs restricts the workload set (empty = the full 18-program
	// suite).
	Programs []string `json:"programs,omitempty"`
	// Instructions is the dynamic trace length per program (default
	// 1,000,000; bounded by the server's max).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup runs each engine over its trace once, untimed, first.
	Warmup bool `json:"warmup,omitempty"`
	// H2P adds the hard-to-predict attribution report to each sweep in
	// the response: per program, the top-N static blocks by penalty
	// cycles with dominant kind and cumulative coverage (the service
	// serves attribution only; the history-length sensitivity sweep is
	// the CLI's `mbpexp h2p`). H2P-enabled runs also feed the fleet-wide
	// mbbpd_h2p_* series on /metrics. Not available with NDJSON
	// streaming.
	H2P bool `json:"h2p,omitempty"`
	// H2PTopN bounds the per-program block list (default 10, max 100).
	H2PTopN int `json:"h2p_topn,omitempty"`
}

// h2pTopNLimit caps the per-program block list a request may ask for.
const h2pTopNLimit = 100

// sweepCall is a validated sweep request: one configuration per
// requested entry, the resolved workload options, whether the client
// asked for the multi-config schema (the configs field), and the h2p
// top-N (0 when h2p is off).
type sweepCall struct {
	cfgs  []core.Config
	opts  harness.Options
	multi bool
	h2pN  int
}

// parseAll resolves and validates the request, single- and
// multi-config alike, including the limits of the representation
// asked for: a stream (NDJSON) takes neither a configs array nor h2p.
// Every check happens here, before the request can take a queue slot;
// the error, when non-nil, is safe to show clients and maps to 400.
func (r *SweepRequest) parseAll(maxInstructions uint64, stream bool) (c sweepCall, err error) {
	c.multi = len(r.Configs) > 0
	switch {
	case !c.multi:
		cfg := core.DefaultConfig()
		if len(r.Config) > 0 {
			if cfg, err = core.LoadConfigJSON(bytes.NewReader(r.Config)); err != nil {
				return c, err
			}
		}
		c.cfgs = []core.Config{cfg}
	case len(r.Config) > 0:
		return c, errors.New("config and configs are mutually exclusive")
	default:
		for i, raw := range r.Configs {
			cfg, err := core.LoadConfigJSON(bytes.NewReader(raw))
			if err != nil {
				return c, fmt.Errorf("configs[%d]: %w", i, err)
			}
			c.cfgs = append(c.cfgs, cfg)
		}
	}
	if c.opts, err = r.options(maxInstructions); err != nil {
		return c, err
	}
	switch {
	case !r.H2P && r.H2PTopN != 0:
		return c, errors.New("h2p_topn requires h2p")
	case !r.H2P:
	case r.H2PTopN == 0:
		c.h2pN = harness.DefaultH2PTopN
	case r.H2PTopN < 0 || r.H2PTopN > h2pTopNLimit:
		return c, fmt.Errorf("h2p_topn %d out of range [1,%d]", r.H2PTopN, h2pTopNLimit)
	default:
		c.h2pN = r.H2PTopN
	}
	switch {
	case stream && c.multi:
		return c, errors.New("streaming supports a single config; use the configs field without stream=ndjson")
	case stream && c.h2pN > 0:
		return c, errors.New("h2p is not available with NDJSON streaming")
	}
	return c, nil
}

// options resolves the workload-set part of the request.
func (r *SweepRequest) options(maxInstructions uint64) (harness.Options, error) {
	o := harness.Options{
		Instructions: r.Instructions,
		Programs:     r.Programs,
		Warmup:       r.Warmup,
	}
	if o.Instructions == 0 {
		o.Instructions = 1_000_000
	}
	if o.Instructions > maxInstructions {
		return harness.Options{},
			fmt.Errorf("instructions %d exceeds server limit %d", o.Instructions, maxInstructions)
	}
	for _, name := range o.Programs {
		if _, err := workload.Get(name); err != nil {
			return harness.Options{}, err
		}
	}
	if len(o.Programs) == 0 {
		o.Programs = workload.Names()
	}
	return o, nil
}

// ProgramResult is one program's simulation outcome: the raw counter
// state of metrics.Result plus the derived figures every consumer
// wants (the same numbers mbpsim prints).
type ProgramResult struct {
	metrics.Result
	IPCf         float64 `json:"ipc_f"`
	IPB          float64 `json:"ipb"`
	BEP          float64 `json:"bep"`
	CondAccuracy float64 `json:"cond_accuracy"`
}

func newProgramResult(r metrics.Result) ProgramResult {
	return ProgramResult{
		Result:       r,
		IPCf:         r.IPCf(),
		IPB:          r.IPB(),
		BEP:          r.BEP(),
		CondAccuracy: r.CondAccuracy(),
	}
}

// SweepResponse is the body of a completed sweep. Every field is a
// pure function of (config, programs, instructions), so two runs of
// the same request — or the server and a serial CLI run — produce
// byte-identical bodies; timing lives in logs and /metrics, never
// here.
type SweepResponse struct {
	// ConfigLabel is the compact rendering Config.String produces;
	// the full configuration echoes back under Config.
	ConfigLabel  string          `json:"config_label"`
	Config       core.Config     `json:"config"`
	Instructions uint64          `json:"instructions"`
	Results      []ProgramResult `json:"results"`
	// Aggregates holds the suite totals the paper reports (raw event
	// counts summed), keyed CINT95 / CFP95.
	Aggregates map[string]ProgramResult `json:"aggregates"`
	// H2P is the hard-to-predict attribution report, present only when
	// the request asked for it (requests without h2p keep their exact
	// historical bodies).
	H2P *H2PReport `json:"h2p,omitempty"`
}

// H2PReport is the response's hard-to-predict section: per program, the
// ranked worst blocks with their coverage curve.
type H2PReport struct {
	TopN     int          `json:"topn"`
	Programs []H2PProgram `json:"programs"`
}

// H2PProgram is one program's attribution summary.
type H2PProgram struct {
	Program     string     `json:"program"`
	TotalCycles uint64     `json:"total_penalty_cycles"`
	Sites       int        `json:"sites"`
	Blocks      []H2PBlock `json:"blocks"`
}

// H2PBlock is one ranked block: its penalty, dominant kind, share of
// the program's total penalty, and cumulative coverage through its
// rank.
type H2PBlock struct {
	Addr   uint32  `json:"addr"`
	Events uint64  `json:"events"`
	Cycles uint64  `json:"cycles"`
	Kind   string  `json:"kind"`
	Share  float64 `json:"share"`
	Cum    float64 `json:"cum_coverage"`
}

// buildH2PReport assembles the deterministic report from per-program
// accumulators, in request program order.
func buildH2PReport(aggs map[string]*obs.H2P, programs []string, topN int) *H2PReport {
	rep := &H2PReport{TopN: topN, Programs: make([]H2PProgram, 0, len(programs))}
	for _, name := range programs {
		a := aggs[name]
		p := H2PProgram{Program: name, TotalCycles: a.TotalCycles(), Sites: a.Sites()}
		for _, site := range a.Ranked(topN) {
			p.Blocks = append(p.Blocks, H2PBlock{
				Addr: site.Addr, Events: site.Events, Cycles: site.Cycles,
				Kind: site.Kind.String(), Share: site.Share, Cum: site.Cum,
			})
		}
		rep.Programs = append(rep.Programs, p)
	}
	return rep
}

// BuildSweepResponse assembles the deterministic response body from a
// folded suite result. The differential tests call this with a
// harness.Serial() result to pin the service byte-for-byte to the
// reference path.
func BuildSweepResponse(cfg core.Config, o harness.Options, res *harness.SuiteResult) SweepResponse {
	resp := SweepResponse{
		ConfigLabel:  cfg.String(),
		Config:       cfg,
		Instructions: o.Instructions,
		Aggregates: map[string]ProgramResult{
			"CINT95": newProgramResult(res.Int),
			"CFP95":  newProgramResult(res.FP),
		},
	}
	for _, name := range o.Programs {
		resp.Results = append(resp.Results, newProgramResult(res.Per[name]))
	}
	return resp
}

// MarshalResponse renders a response body exactly as the handler
// writes it (indented, trailing newline). Exported so differential
// tests compare bytes against the reference path with no second
// encoder to drift.
func MarshalResponse(resp SweepResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MultiSweepResponse is the body of a completed multi-config sweep:
// one SweepResponse per requested configuration, in request order.
// Each entry is the same document the single-config endpoint would
// return for that configuration — lane batching changes cost, not
// content.
type MultiSweepResponse struct {
	Sweeps []SweepResponse `json:"sweeps"`
}

// MarshalMultiResponse renders a multi-config response body exactly as
// the handler writes it.
func MarshalMultiResponse(resp MultiSweepResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
