package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
	"mbbp/internal/obs"
)

// Request identity. Every sweep response carries an X-Request-ID; a
// fleet-routed request reuses the client's ID (or the front-end's
// minted one) on the replica hop, so one ID stitches the front-end's
// and the replica's log lines together. Minted IDs are
// "<process-prefix>-<seq>": the random prefix keeps IDs distinct
// across replicas that all mint from 1.
const requestIDHeader = "X-Request-ID"

// newRIDPrefix draws the per-process request-ID prefix. The
// deterministic fallback only matters on a broken entropy source —
// IDs are for log stitching, not security.
func newRIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "mbbpd"
	}
	return hex.EncodeToString(b[:])
}

// requestID accepts the client's (or front-end's) X-Request-ID when it
// is safely loggable, and mints one otherwise.
func (s *Server) requestID(r *http.Request) string {
	if rid := sanitizeRID(r.Header.Get(requestIDHeader)); rid != "" {
		return rid
	}
	return fmt.Sprintf("%s-%d", s.ridPrefix, s.reqSeq.Add(1))
}

// sanitizeRID bounds a client-supplied ID and restricts it to a
// token-ish charset so it can be echoed into headers and logs verbatim.
func sanitizeRID(v string) string {
	if v == "" || len(v) > 64 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return v
}

// h2pState carries one request's attribution accumulators from engine
// attach to report assembly: one obs.H2P per (configuration, program).
// Keyed by the config value because the config is the only identity a
// lane batch hands back to the observer hook; equal configs share one
// lane and so one accumulator. The whole map is built before any
// engine runs; concurrent engines only read the map and each write
// their own accumulator.
type h2pState struct {
	topN int
	aggs map[core.Config]map[string]*obs.H2P // config → program → accumulator
}

// newH2PState prepares accumulators for the configurations a request
// will compute. nil topN (h2p off) yields a nil state, and every
// method on a nil state is a no-op — callers thread it unconditionally.
func (s *Server) newH2PState(topN int, cfgs []core.Config, programs []string) *h2pState {
	if topN <= 0 {
		return nil
	}
	st := &h2pState{topN: topN, aggs: make(map[core.Config]map[string]*obs.H2P, len(cfgs))}
	for _, cfg := range cfgs {
		if _, ok := st.aggs[cfg]; ok {
			continue
		}
		per := make(map[string]*obs.H2P, len(programs))
		for _, name := range programs {
			per[name] = obs.NewH2P()
		}
		st.aggs[cfg] = per
	}
	return st
}

// teeObserver fans one engine's events to the service tap and a
// request accumulator. It deliberately has no ObserverGate: the H2P
// leg always needs the stream.
type teeObserver [2]core.Observer

func (t teeObserver) Observe(ev core.Event) {
	t[0].Observe(ev)
	t[1].Observe(ev)
}

// tappedH2P attaches the service-wide event tap (when enabled) and this
// request's attribution (when st is non-nil) to a trace set. The tap's
// counters are atomic and shared by every engine of every request;
// observers never perturb results.
func (s *Server) tappedH2P(ts *harness.TraceSet, st *h2pState) *harness.TraceSet {
	if st == nil && s.tap == nil {
		return ts
	}
	return ts.WithObserver(func(program string, cfg core.Config) core.Observer {
		agg := st.agg(program, cfg)
		switch {
		case agg == nil && s.tap == nil:
			return nil
		case agg == nil:
			return s.tap
		case s.tap == nil:
			return agg
		}
		return teeObserver{s.tap, agg}
	})
}

// agg returns the accumulator of program's run under cfg, or nil when
// h2p is off (st nil) or cfg is not part of the request.
func (st *h2pState) agg(program string, cfg core.Config) *obs.H2P {
	if st == nil {
		return nil
	}
	return st.aggs[cfg][program]
}

// report renders one configuration's attribution section, or nil when
// h2p is off (so plain responses keep their exact historical bodies).
func (st *h2pState) report(cfg core.Config, programs []string) *H2PReport {
	if st == nil {
		return nil
	}
	per := st.aggs[cfg]
	if per == nil {
		return nil
	}
	return buildH2PReport(per, programs, st.topN)
}

// fleetH2P folds every locally computed H2P-enabled sweep into one
// process-lifetime accumulator for /metrics. On a shard front-end the
// replicas do the computing, so each replica's exposition carries its
// own slice of the fleet — scrape them all and sum, the same way the
// sharded result cache partitions capacity.
type fleetH2P struct {
	mu       sync.Mutex
	requests uint64
	agg      *obs.H2P
}

func newFleetH2P() *fleetH2P { return &fleetH2P{agg: obs.NewH2P()} }

// record merges one completed request's accumulators. No-op on a nil
// state, so callers fold unconditionally after a successful compute.
func (f *fleetH2P) record(st *h2pState) {
	if st == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requests++
	for _, per := range st.aggs {
		for _, a := range per {
			f.agg.Add(a)
		}
	}
}

// h2pTopSeries bounds the top-block gauge series on /metrics: label
// cardinality is a budget, and ten blocks is the report's own default
// horizon.
const h2pTopSeries = 10

// h2pSnapshot is one consistent scrape of the fleet accumulator.
type h2pSnapshot struct {
	Requests uint64
	Blocks   uint64
	Sites    int
	Kinds    [metrics.NumKinds]uint64
	Top      []obs.H2PSite
}

func (f *fleetH2P) snapshot() *h2pSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &h2pSnapshot{
		Requests: f.requests,
		Blocks:   f.agg.Blocks(),
		Sites:    f.agg.Sites(),
		Top:      f.agg.Top(h2pTopSeries),
	}
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		s.Kinds[k] = f.agg.KindCycles(k)
	}
	return s
}
