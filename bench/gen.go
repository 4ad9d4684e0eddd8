package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"mbbp/internal/core"
	"mbbp/internal/icache"
	"mbbp/internal/metrics"
	"mbbp/internal/workload"
)

// The generators below turn a seed into the inputs of every workload.
// Each draws from its own named stream, so adding a draw to one
// workload never shifts another's inputs.
//
// The host cost of a sweep is the sum of its configurations' costs, and
// the benchmark compares runs made on different seeds. So a grid fixes
// each configuration's structure (fetch mode, selection, block count,
// target array kind, finite BIT, predictor family) by its position, and
// fixes how often each size value occurs across the grid; the seed only
// decides which configuration gets which value. Two seeds then give
// different grids with nearly the same total cost.

// newRNG returns the seeded stream named stream.
func newRNG(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed*1_000_003 ^ int64(h.Sum64()>>1)))
}

// balanced returns n values that cycle through vals from a seeded
// offset, shuffled: every value occurs n/len(vals) or one more times.
func balanced(r *rand.Rand, n int, vals []int) []int {
	off := r.Intn(len(vals))
	out := make([]int, n)
	for i := range out {
		out[i] = vals[(off+i)%len(vals)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// knob is one seeded size of a configuration and the values it takes.
type knob struct {
	vals []int
	set  func(c *core.Config, v int)
}

// sizeKnobs barely move a configuration's host cost.
var sizeKnobs = []knob{
	{[]int{8, 9, 10, 11, 12}, func(c *core.Config, v int) { c.HistoryBits = v }},
	{[]int{1, 2}, func(c *core.Config, v int) { c.NumPHTs = v }},
	{[]int{128, 256, 512}, func(c *core.Config, v int) { c.TargetEntries = v }},
	{[]int{16, 32}, func(c *core.Config, v int) { c.RASSize = v }},
}

// paperKnobs add the sizes that do move it, balanced across a grid.
var paperKnobs = append(append([]knob(nil), sizeKnobs...),
	knob{[]int{1, 2, 4}, func(c *core.Config, v int) { c.NumSTs = v }},
	knob{[]int{0, 1}, func(c *core.Config, v int) { c.NearBlock = v == 1 }},
)

// tageKnobs size a TAGE configuration; TAGE has one PHT by definition.
var tageKnobs = []knob{
	{[]int{8, 9, 10, 11, 12}, func(c *core.Config, v int) { c.HistoryBits = v }},
	{[]int{128, 256, 512}, func(c *core.Config, v int) { c.TargetEntries = v }},
	{[]int{1, 2, 4}, func(c *core.Config, v int) { c.NumSTs = v }},
	{[]int{0, 1}, func(c *core.Config, v int) { c.NearBlock = v == 1 }},
	{[]int{3, 4, 5}, func(c *core.Config, v int) { c.TAGE.Tables = v }},
	{[]int{8, 9, 10}, func(c *core.Config, v int) { c.TAGE.TableBits = v }},
	{[]int{7, 8, 9}, func(c *core.Config, v int) { c.TAGE.TagBits = v }},
	{[]int{10, 11}, func(c *core.Config, v int) { c.TAGE.BaseBits = v }},
	{[]int{3, 4, 5}, func(c *core.Config, v int) { c.TAGE.MinHistory = v }},
	{[]int{48, 64, 80}, func(c *core.Config, v int) { c.TAGE.MaxHistory = v }},
	{[]int{1024, 2048, 4096}, func(c *core.Config, v int) { c.TAGE.ResetPeriod = v }},
}

// sized returns bases with every knob applied, each knob's values
// balanced across the bases.
func sized(r *rand.Rand, bases []core.Config, knobs []knob) []core.Config {
	out := append([]core.Config(nil), bases...)
	for _, k := range knobs {
		for i, v := range balanced(r, len(out), k.vals) {
			k.set(&out[i], v)
		}
	}
	return out
}

// paperBase is a paper-predictor configuration on geom whose structure
// is set by variant (0..5).
func paperBase(geom icache.Geometry, variant int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry = geom
	switch variant % 6 {
	case 1:
		cfg.Selection = metrics.DoubleSelection
	case 2:
		cfg.Mode = core.SingleBlock
	case 3:
		cfg.TargetArray = core.BTB
	case 4:
		cfg.BITEntries = 512
	case 5:
		cfg.NumBlocks = 3
	}
	return cfg
}

// tageBase is a dual-block TAGE configuration on geom.
func tageBase(geom icache.Geometry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry = geom
	cfg.Predictor = core.PredictorTAGE
	return cfg
}

// configHash is the canonical hash of a generated configuration. The
// generators only build valid configurations, so a failure is a bug.
func configHash(cfg core.Config) string {
	h, err := cfg.CanonicalHash()
	if err != nil {
		panic(fmt.Sprintf("bench: generated an invalid config %s: %v", cfg, err))
	}
	return h
}

// distinct calls draw until its configurations have distinct hashes.
func distinct(draw func() []core.Config) []core.Config {
	for {
		cfgs := draw()
		seen := map[string]bool{}
		for _, cfg := range cfgs {
			seen[configHash(cfg)] = true
		}
		if len(seen) == len(cfgs) {
			return cfgs
		}
	}
}

// lanesConfigs is the sweep-lanes grid: 32 configurations sharing the
// normal W=8 geometry, every fourth on TAGE, the paper ones spread
// evenly over the six structures.
func lanesConfigs(seed int64) []core.Config {
	r := newRNG(seed, "sweep-lanes")
	geom := icache.ForKind(icache.Normal, 8)
	return distinct(func() []core.Config {
		var paper, tage []core.Config
		for i := 0; i < 24; i++ {
			paper = append(paper, paperBase(geom, i))
		}
		for i := 0; i < 8; i++ {
			tage = append(tage, tageBase(geom))
		}
		paper, tage = sized(r, paper, paperKnobs), sized(r, tage, tageKnobs)
		out := make([]core.Config, 0, 32)
		for i := 0; i < 8; i++ {
			out = append(out, paper[3*i:3*i+3]...)
			out = append(out, tage[i])
		}
		return out
	})
}

// geometryConfigs is the sweep-geometries grid: one configuration on
// each of {normal, extended, self-aligned} x W in {4, 8, 16}.
func geometryConfigs(seed int64) []core.Config {
	r := newRNG(seed, "sweep-geometries")
	var bases []core.Config
	for _, kind := range []icache.Kind{icache.Normal, icache.Extended, icache.SelfAligned} {
		for _, w := range []int{4, 8, 16} {
			bases = append(bases, paperBase(icache.ForKind(kind, w), 0))
		}
	}
	return distinct(func() []core.Config { return sized(r, bases, paperKnobs) })
}

// tracefileConfig is the configuration tracefile-h2p runs every program
// under. Only its cost-neutral sizes vary with the seed; the seeded
// traces are that workload's input.
func tracefileConfig(seed int64) core.Config {
	r := newRNG(seed, "tracefile-h2p")
	return sized(r, []core.Config{paperBase(icache.ForKind(icache.Normal, 8), 0)}, sizeKnobs)[0]
}

// request is one POST /v1/sweep of the service workload.
type request struct {
	class    string // "hot", "cold" (single config) or "multi"
	configs  []core.Config
	programs []string
	n        uint64
	body     []byte
}

// instructions is the simulation work the request asks for.
func (q request) instructions() uint64 {
	return q.n * uint64(len(q.programs)*len(q.configs))
}

func newRequest(class string, cfgs []core.Config, programs []string, n uint64) request {
	wire := struct {
		Config       json.RawMessage   `json:"config,omitempty"`
		Configs      []json.RawMessage `json:"configs,omitempty"`
		Programs     []string          `json:"programs"`
		Instructions uint64            `json:"instructions"`
	}{Programs: programs, Instructions: n}
	for _, cfg := range cfgs {
		raw, err := json.Marshal(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: marshaling config: %v", err))
		}
		wire.Configs = append(wire.Configs, raw)
	}
	if class != "multi" {
		wire.Config, wire.Configs = wire.Configs[0], nil
	}
	body, err := json.Marshal(wire)
	if err != nil {
		panic(fmt.Sprintf("bench: marshaling request: %v", err))
	}
	return request{class: class, configs: cfgs, programs: programs, n: n, body: body}
}

// serviceSizes are the per-program instruction counts of the service
// mix.
type serviceSizes struct {
	hot   uint64   // hot bodies
	cold  []uint64 // cold single-config requests draw one of these
	multi uint64   // cold multi-config requests
}

func defaultServiceSizes() serviceSizes {
	return serviceSizes{hot: 50_000, cold: []uint64{50_000, 100_000}, multi: 100_000}
}

// uniformSizes returns sizes with every count set to n (tiny test runs).
func uniformSizes(n uint64) serviceSizes {
	return serviceSizes{hot: n, cold: []uint64{n}, multi: n}
}

// serviceGen draws service requests; seen holds every body drawn so far,
// so a cold request is never a repeat (and never a hot body).
type serviceGen struct {
	r     *rand.Rand
	sizes serviceSizes
	seen  map[string]bool
}

func newServiceGen(seed int64, stream string, sizes serviceSizes, seen map[string]bool) *serviceGen {
	return &serviceGen{r: newRNG(seed, stream), sizes: sizes, seen: seen}
}

// programs draws k distinct suite programs, in suite order.
func (g *serviceGen) programs(k int) []string {
	names := workload.Names()
	idx := g.r.Perm(len(names))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}

// config draws one service configuration on geom: TAGE one time in
// four, otherwise a paper configuration of any structure. Requests are
// many, so their costs average out without balancing.
func (g *serviceGen) config(geom icache.Geometry) core.Config {
	if g.r.Intn(4) == 0 {
		return sized(g.r, []core.Config{tageBase(geom)}, tageKnobs)[0]
	}
	return sized(g.r, []core.Config{paperBase(geom, g.r.Intn(6))}, paperKnobs)[0]
}

// unique redraws until the request body is new.
func (g *serviceGen) unique(draw func() request) request {
	for {
		q := draw()
		if key := string(q.body); !g.seen[key] {
			g.seen[key] = true
			return q
		}
	}
}

// single draws a single-config request over three programs.
func (g *serviceGen) single(class string, n uint64) request {
	return g.unique(func() request {
		kind := []icache.Kind{icache.Normal, icache.Extended}[g.r.Intn(2)]
		return newRequest(class, []core.Config{g.config(icache.ForKind(kind, 8))}, g.programs(3), n)
	})
}

// multi draws four configurations on two geometries over six programs.
func (g *serviceGen) multi() request {
	return g.unique(func() request {
		cfgs := distinct(func() []core.Config {
			out := make([]core.Config, 4)
			for i := range out {
				out[i] = g.config(icache.ForKind([]icache.Kind{icache.Normal, icache.Extended}[i/2], 8))
			}
			return out
		})
		return newRequest("multi", cfgs, g.programs(6), g.sizes.multi)
	})
}

// hotSet is the eight bodies the service workload warms in set-up.
func hotSet(seed int64, sizes serviceSizes) []request {
	g := newServiceGen(seed, "service-hot", sizes, map[string]bool{})
	out := make([]request, 8)
	for i := range out {
		out[i] = g.single("hot", sizes.hot)
	}
	return out
}

// clientMix is one block of a client's stream: 60% hot bodies, 30%
// fresh single-config and 10% fresh multi-config requests. The shares
// are the workload's definition, not a measurement: no recorded mbbpd
// traffic exists to take them from.
var clientMix = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"hot", "hot", "cold", "cold", "cold", "cold", "cold", "cold", "multi", "multi",
}

// clientStream is one client's seeded request stream: blocks of
// clientMix in seeded order, so streams differ in their requests but
// not in their mix.
type clientStream struct {
	g     *serviceGen
	hot   []request
	queue []string
}

func newClientStream(seed int64, client int, hot []request, sizes serviceSizes) *clientStream {
	seen := map[string]bool{}
	for _, q := range hot {
		seen[string(q.body)] = true
	}
	return &clientStream{g: newServiceGen(seed, fmt.Sprintf("service-client-%d", client), sizes, seen), hot: hot}
}

func (c *clientStream) next() request {
	if len(c.queue) == 0 {
		c.queue = append(c.queue, clientMix...)
		c.g.r.Shuffle(len(c.queue), func(i, j int) { c.queue[i], c.queue[j] = c.queue[j], c.queue[i] })
	}
	class := c.queue[0]
	c.queue = c.queue[1:]
	switch class {
	case "hot":
		return c.hot[c.g.r.Intn(len(c.hot))]
	case "cold":
		return c.g.single("cold", c.g.sizes.cold[c.g.r.Intn(len(c.g.sizes.cold))])
	default:
		return c.g.multi()
	}
}
