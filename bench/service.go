package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runServiceMixed drives an `mbbpd -workers <nproc>` child process with
// a closed loop of nproc clients, one keep-alive connection each. mbbpd
// callers wait for each reply, hence a closed loop. Each client's seeded
// stream mixes result-cache hits on the queue-bypass path (60%, the
// eight bodies warmed in set-up) with fresh single-config (30%) and
// multi-config (10%) requests that compute and insert into the cache,
// so a gain on one path that costs the other shows as a split between
// the median and the tail. The loop runs in rounds, each client sending
// one block of its stream per round, so every round's work has one
// shape, and the host is sampled between rounds as it is between a
// sweep's passes.
func runServiceMixed(ctx context.Context, o *options, out *outcome) error {
	sizes := serviceSizesFor(o)
	hot := hotSet(o.seed, sizes)
	for _, q := range hot {
		out.prov.addConfigs(q.configs...)
	}
	bin, err := ensureMbbpd(ctx, o)
	if err != nil {
		return err
	}
	if o.traced {
		if err := runServiceBattery(ctx, o, out, hot); err != nil {
			return err
		}
	}

	hm := newHostMeter(o.nproc)
	var reps [][2]time.Time
	var sv *service
	var refs [][]byte
	for k := 0; k < setupReps; k++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return err
			}
		}
		hm.sample(1)
		t0 := time.Now()
		if sv, err = startService(ctx, bin, o.nproc); err != nil {
			return err
		}
		if refs, err = sv.warm(ctx, hot); err != nil {
			sv.stop()
			return err
		}
		reps = append(reps, [2]time.Time{t0, time.Now()})
	}
	defer sv.stop()
	hm.sample(1)
	setups := hm.refDurations(reps)

	lr, err := serviceLoop(ctx, sv, o, hot, refs, sizes, o.seconds, out.spans, hm)
	if err != nil {
		return err
	}
	rss, err := vmHWM(strconv.Itoa(sv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	if err := verifyService(ctx, o, out, hot, refs, lr); err != nil {
		return err
	}

	if o.traced {
		setServiceLayers(out, lr)
		return nil
	}
	passes := make([]pass, len(lr.rounds))
	var lats []float64
	for i, rd := range lr.rounds {
		p := pass{t0: rd.t0, t1: rd.t1}
		speed := hm.speed(rd.t0, rd.t1)
		for _, rp := range rd.replies {
			if rp.err == nil {
				p.done++
				if rp.cache == "miss" {
					p.instr += rp.q.instructions()
				}
			}
			lats = append(lats, rp.latency()*speed)
		}
		passes[i] = p
	}
	setE2E(out, hm, passes, lats, setups, rss)
	out.note("requests %d in %.2fs: %s", len(lr.replies), lr.wall, lr.mix())
	return nil
}

func serviceSizesFor(o *options) serviceSizes {
	if o.n > 0 {
		return uniformSizes(o.n)
	}
	return defaultServiceSizes()
}

// ensureMbbpd returns the mbbpd binary, building it from the checkout
// when -mbbpd was not given. Building happens before any timing.
func ensureMbbpd(ctx context.Context, o *options) (string, error) {
	if o.mbbpd != "" {
		return o.mbbpd, nil
	}
	bin, err := filepath.Abs(filepath.Join(o.workdir, "mbbpd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "mbbp/cmd/mbbpd")
	cmd.Dir = filepath.Join(o.root, "bench")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building mbbpd: %w", err)
	}
	o.mbbpd = bin
	return bin, nil
}

// service is one running mbbpd child process.
type service struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
}

// startService starts mbbpd on a free loopback port and waits until
// /healthz answers.
func startService(ctx context.Context, bin string, workers int) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mbbpd: %w", err)
	}
	sv := &service{cmd: cmd, base: "http://" + addr, http: newClient()}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := sv.http.Get(sv.base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.HasPrefix(string(body), "ok") {
				return sv, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			sv.stop()
			return nil, fmt.Errorf("mbbpd did not become healthy at %s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates mbbpd (SIGTERM drains it) and waits for it to exit,
// killing it if the drain takes too long.
func (sv *service) stop() error {
	sv.http.CloseIdleConnections()
	if err := sv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		sv.cmd.Wait()
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- sv.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		sv.cmd.Process.Kill()
		<-done
		return errors.New("mbbpd did not drain within 30s; killed")
	}
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	q      request
	hotIdx int // index into the hot set, or -1
	start  time.Time
	lat    time.Duration
	status int
	cache  string
	stages map[string]float64 // server stage -> ms, from X-Request-Stages
	rid    string
	body   []byte // kept for the re-simulated sample only
	err    error
}

// latency is the request's latency in ms; a failed request counts as
// missing every latency limit.
func (rp reply) latency() float64 {
	if rp.err != nil {
		return float64(time.Hour / time.Millisecond)
	}
	return ms(rp.lat)
}

// post sends q and reads the whole reply, trailer included.
func (sv *service) post(ctx context.Context, cl *http.Client, q request) (reply, []byte) {
	rp := reply{q: q, hotIdx: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.base+"/v1/sweep", bytes.NewReader(q.body))
	if err != nil {
		rp.err = err
		return rp, nil
	}
	req.Header.Set("Content-Type", "application/json")
	rp.start = time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		rp.err = err
		return rp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.lat = time.Since(rp.start)
	rp.status = resp.StatusCode
	rp.cache = resp.Header.Get("Cache-Status")
	rp.rid = resp.Header.Get("X-Request-ID")
	rp.stages = parseStages(resp.Trailer.Get("X-Request-Stages"))
	switch {
	case err != nil:
		rp.err = fmt.Errorf("reading reply: %w", err)
	case resp.StatusCode != http.StatusOK:
		rp.err = fmt.Errorf("%s request: status %d: %s", q.class, resp.StatusCode, bytes.TrimSpace(body))
	}
	return rp, body
}

// parseStages reads "admit;dur=0.123, queue;dur=4.5" into stage -> ms.
func parseStages(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// warm posts every hot body once and returns the replies as references.
func (sv *service) warm(ctx context.Context, hot []request) ([][]byte, error) {
	refs := make([][]byte, len(hot))
	for i, q := range hot {
		rp, body := sv.post(ctx, sv.http, q)
		if rp.err != nil {
			return nil, fmt.Errorf("warming hot body %d: %w", i, rp.err)
		}
		refs[i] = body
	}
	return refs, nil
}

// getJSON fetches a JSON document from the service.
func (sv *service) getJSON(path string) (map[string]any, error) {
	resp, err := sv.http.Get(sv.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return doc, nil
}

// loopResult is one closed-loop run.
type loopResult struct {
	rounds   []round
	replies  []reply // every round's replies
	sampled  []reply // cold replies whose bodies are re-simulated
	wall     float64
	before   map[string]any // /metrics at loop start and end
	after    map[string]any
	varsPre  map[string]any // /debug/vars memstats at loop start and end
	varsPost map[string]any
}

// round is one round of the closed loop: every client sends its next
// block of clientMix requests, each after the previous reply, and the
// round ends with the last reply.
type round struct {
	t0, t1  time.Time
	replies []reply
}

func (lr *loopResult) mix() string {
	counts := map[string]int{}
	for _, rp := range lr.replies {
		counts[rp.q.class+"/"+rp.cache]++
	}
	var parts []string
	for _, k := range sortedKeys(counts) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// coldSamples is how many of client 0's first cold single-config and
// multi-config replies are re-simulated after the loop.
const coldSamples = 2

// serviceLoop runs the closed loop in rounds until seconds have passed.
// Hot replies are byte-compared with their warm references as they
// arrive. With a recorder, every request becomes a span with the
// server's stages as child spans.
func serviceLoop(ctx context.Context, sv *service, o *options, hot []request, refs [][]byte,
	sizes serviceSizes, seconds float64, rec *recorder, hm *hostMeter) (*loopResult, error) {
	hotIdx := map[string]int{}
	for i, q := range hot {
		hotIdx[string(q.body)] = i
	}
	lr := &loopResult{}
	var err error
	if lr.before, err = sv.getJSON("/metrics"); err != nil {
		return nil, err
	}
	if lr.varsPre, err = sv.getJSON("/debug/vars"); err != nil {
		return nil, err
	}
	clients := o.nproc
	streams := make([]*clientStream, clients)
	conns := make([]*http.Client, clients)
	for c := range streams {
		streams[c] = newClientStream(o.seed, c, hot, sizes)
		conns[c] = newClient()
		defer conns[c].CloseIdleConnections()
	}
	sampled := map[string]int{} // class -> bodies kept; client 0 only
	start := time.Now()
	for len(lr.rounds) == 0 || time.Since(start).Seconds() < seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hm != nil {
			hm.tick()
		}
		t0 := time.Now()
		blocks := make([][]reply, clients)
		var wg sync.WaitGroup
		for c := range streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for range clientMix {
					q := streams[c].next()
					rp, body := sv.post(ctx, conns[c], q)
					if i, ok := hotIdx[string(q.body)]; ok {
						rp.hotIdx = i
						if rp.err == nil && !bytes.Equal(body, refs[i]) {
							rp.err = fmt.Errorf("hot body %d differs from its warm reference", i)
						}
					}
					if c == 0 && rp.err == nil && q.class != "hot" && sampled[q.class] < coldSamples {
						sampled[q.class]++
						rp.body = body
					}
					if rec != nil {
						id := rec.add("service.request", 0, rp.rid, rp.start, rp.lat, q.class+" "+rp.cache)
						at := rp.start
						for _, stage := range []string{"admit", "queue", "capture", "simulate", "render"} {
							if d, ok := rp.stages[stage]; ok {
								dd := time.Duration(d * float64(time.Millisecond))
								rec.add("server."+stage, id, rp.rid, at, dd, "")
								at = at.Add(dd)
							}
						}
					}
					blocks[c] = append(blocks[c], rp)
				}
			}(c)
		}
		wg.Wait()
		rd := round{t0: t0, t1: time.Now()}
		for _, b := range blocks {
			rd.replies = append(rd.replies, b...)
		}
		lr.rounds = append(lr.rounds, rd)
		lr.replies = append(lr.replies, rd.replies...)
	}
	if hm != nil {
		hm.sample(1)
	}
	lr.wall = time.Since(start).Seconds()
	if lr.after, err = sv.getJSON("/metrics"); err != nil {
		return nil, err
	}
	if lr.varsPost, err = sv.getJSON("/debug/vars"); err != nil {
		return nil, err
	}
	for _, rp := range lr.replies {
		if rp.body != nil {
			lr.sampled = append(lr.sampled, rp)
		}
	}
	return lr, nil
}

// verifyService checks the loop's replies, the warm references against
// re-simulated bodies (and, for the committed seed, their digests), and
// the sampled cold bodies against re-simulation.
func verifyService(ctx context.Context, o *options, out *outcome, hot []request, refs [][]byte, lr *loopResult) error {
	for _, rp := range lr.replies {
		out.check(rp.err)
	}
	or, err := newOracle(o, out, "service-mixed")
	if err != nil {
		return err
	}
	traces := traceStore{}
	for i, q := range hot {
		want, err := refBody(ctx, q, traces)
		if err == nil && !bytes.Equal(want, refs[i]) {
			err = fmt.Errorf("hot body %d differs from the serial re-simulation", i)
		}
		if err == nil {
			err = or.check(hotKey(i, q), bytesDigest(refs[i]))
		}
		out.check(err)
	}
	for _, rp := range lr.sampled {
		want, err := refBody(ctx, rp.q, traces)
		if err == nil && !bytes.Equal(want, rp.body) {
			err = fmt.Errorf("%s body (%s) differs from the serial re-simulation", rp.q.class, rp.q.programs)
		}
		out.check(err)
	}
	if len(lr.sampled) == 0 {
		out.note("no cold reply was sampled for re-simulation (loop too short)")
	}
	keys := make([]traceKey, 0, len(traces))
	for k := range traces {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].program != keys[j].program {
			return keys[i].program < keys[j].program
		}
		return keys[i].n < keys[j].n
	})
	for _, k := range keys {
		out.prov.addTrace(k.program, k.n, traces[k])
	}
	return nil
}

// metricDelta is the growth of a numeric /metrics field over the loop.
func metricDelta(before, after map[string]any, key string) float64 {
	b, _ := before[key].(float64)
	a, _ := after[key].(float64)
	return a - b
}

// memstat reads one field of the /debug/vars memstats group.
func memstat(vars map[string]any, key string) float64 {
	m, _ := vars["memstats"].(map[string]any)
	v, _ := m[key].(float64)
	return v
}
