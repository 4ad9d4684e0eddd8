package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mbbp/internal/core"
)

// TestSweepH2P pins the h2p response contract: the section appears only
// when asked for (plain requests keep their exact historical bodies and
// their own ETag/cache key family), it is internally consistent, and it
// is byte-deterministic across server instances.
func TestSweepH2P(t *testing.T) {
	s := newTestServer(t, Config{})
	plainReq := SweepRequest{Programs: []string{"li", "go"}, Instructions: 5_000}
	h2pReq := plainReq
	h2pReq.H2P = true

	plain := postSweep(t, s.Handler(), plainReq, "")
	withH2P := postSweep(t, s.Handler(), h2pReq, "")
	if plain.Code != 200 || withH2P.Code != 200 {
		t.Fatalf("status plain=%d h2p=%d", plain.Code, withH2P.Code)
	}
	if bytes.Contains(plain.Body.Bytes(), []byte(`"h2p"`)) {
		t.Error("plain response grew an h2p section")
	}
	if plain.Header().Get("ETag") == withH2P.Header().Get("ETag") {
		t.Error("h2p and plain requests share an ETag; the bodies differ")
	}
	// The h2p variant is a different cache key: the second request must
	// not be served the plain entry.
	if got := withH2P.Header().Get(cacheStatusHeader); got != string(cacheMiss) {
		t.Errorf("h2p after plain Cache-Status = %q, want miss", got)
	}

	var resp SweepResponse
	if err := json.Unmarshal(withH2P.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	rep := resp.H2P
	if rep == nil {
		t.Fatal("no h2p section")
	}
	if rep.TopN != 10 {
		t.Errorf("default topn = %d, want 10", rep.TopN)
	}
	if len(rep.Programs) != 2 || rep.Programs[0].Program != "li" || rep.Programs[1].Program != "go" {
		t.Fatalf("programs out of request order: %+v", rep.Programs)
	}
	for _, p := range rep.Programs {
		if p.TotalCycles == 0 || p.Sites == 0 || len(p.Blocks) == 0 {
			t.Fatalf("%s: empty attribution: %+v", p.Program, p)
		}
		prevCum := 0.0
		for i, b := range p.Blocks {
			if i > 0 && b.Cycles > p.Blocks[i-1].Cycles {
				t.Errorf("%s: rank %d out of order", p.Program, i+1)
			}
			if b.Cum < prevCum || b.Cum > 1+1e-12 {
				t.Errorf("%s: coverage not monotone in [0,1]: %v", p.Program, b.Cum)
			}
			prevCum = b.Cum
			if b.Kind == "" || b.Events == 0 || b.Cycles == 0 {
				t.Errorf("%s: degenerate block %+v", p.Program, b)
			}
		}
	}

	// Determinism across instances, and explicit topn narrows the list.
	again := postSweep(t, newTestServer(t, Config{}).Handler(), h2pReq, "")
	if !bytes.Equal(again.Body.Bytes(), withH2P.Body.Bytes()) {
		t.Error("h2p body differs across server instances")
	}
	narrowReq := h2pReq
	narrowReq.H2PTopN = 3
	narrow := postSweep(t, s.Handler(), narrowReq, "")
	var nresp SweepResponse
	if err := json.Unmarshal(narrow.Body.Bytes(), &nresp); err != nil {
		t.Fatal(err)
	}
	if nresp.H2P.TopN != 3 || len(nresp.H2P.Programs[0].Blocks) > 3 {
		t.Errorf("topn=3 yielded %d blocks", len(nresp.H2P.Programs[0].Blocks))
	}
	if narrow.Header().Get("ETag") == withH2P.Header().Get("ETag") {
		t.Error("different topn shares an ETag")
	}
}

// TestSweepH2PValidation pins the 400 family: h2p_topn without h2p,
// out-of-range topn, and h2p on the NDJSON stream.
func TestSweepH2PValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name  string
		req   SweepRequest
		query string
	}{
		{"topn without h2p", SweepRequest{Programs: []string{"li"}, Instructions: 5_000, H2PTopN: 5}, ""},
		{"topn too large", SweepRequest{Programs: []string{"li"}, Instructions: 5_000, H2P: true, H2PTopN: 101}, ""},
		{"topn negative", SweepRequest{Programs: []string{"li"}, Instructions: 5_000, H2P: true, H2PTopN: -1}, ""},
		{"ndjson", SweepRequest{Programs: []string{"li"}, Instructions: 5_000, H2P: true}, "?stream=ndjson"},
	}
	for _, c := range cases {
		if w := postSweep(t, s.Handler(), c.req, c.query); w.Code != 400 {
			t.Errorf("%s: status %d, want 400", c.name, w.Code)
		}
	}
}

// TestSweepH2PMultiMatchesSingle: each entry of a multi-config h2p
// response carries exactly the attribution the single-config endpoint
// reports for that configuration — lane batching and the shared
// per-request accumulator map change cost, not content.
func TestSweepH2PMultiMatchesSingle(t *testing.T) {
	pinned := pinnedConfigs()
	for _, tc := range []struct {
		name string
		cfgs []core.Config
	}{
		{"distinct", pinned[:2]},
		// The same configuration twice runs once: each section must
		// still equal the single-config reference, so no accumulator
		// is counted twice.
		{"duplicate", []core.Config{pinned[0], pinned[0]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			multiReq := SweepRequest{Programs: []string{"li"}, Instructions: 5_000, H2P: true}
			for _, cfg := range tc.cfgs {
				multiReq.Configs = append(multiReq.Configs, configJSON(t, cfg))
			}
			w := postSweep(t, s.Handler(), multiReq, "")
			if w.Code != 200 {
				t.Fatalf("multi h2p sweep = %d: %s", w.Code, w.Body.String())
			}
			checkH2PSectionsMatchSingle(t, w.Body.Bytes(), tc.cfgs)
		})
	}
}

// checkH2PSectionsMatchSingle asserts that every sweep of a multi-config
// h2p body carries the attribution section a fresh server answers the
// single-config request for that configuration with.
func checkH2PSectionsMatchSingle(t *testing.T, body []byte, cfgs []core.Config) {
	t.Helper()
	var multi MultiSweepResponse
	if err := json.Unmarshal(body, &multi); err != nil {
		t.Fatal(err)
	}
	if len(multi.Sweeps) != len(cfgs) {
		t.Fatalf("%d sweeps for %d configs", len(multi.Sweeps), len(cfgs))
	}
	for i, cfg := range cfgs {
		single := postSweep(t, newTestServer(t, Config{}).Handler(), SweepRequest{
			Config: configJSON(t, cfg), Programs: []string{"li"},
			Instructions: 5_000, H2P: true,
		}, "")
		var ref SweepResponse
		if err := json.Unmarshal(single.Body.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(multi.Sweeps[i].H2P)
		want, _ := json.Marshal(ref.H2P)
		if !bytes.Equal(got, want) {
			t.Errorf("config %d: multi h2p section differs from single-config reference", i)
		}
	}
}

// TestH2PFleetMetrics: an h2p-enabled sweep feeds the fleet-wide
// mbbpd_h2p_* series — requests counted, penalty attributed by kind,
// top-block gauges ranked — in both the JSON document and the
// Prometheus exposition.
func TestH2PFleetMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := postSweep(t, s.Handler(), SweepRequest{
		Programs: []string{"li"}, Instructions: 5_000, H2P: true,
	}, ""); w.Code != 200 {
		t.Fatalf("sweep = %d", w.Code)
	}

	var doc map[string]any
	if err := json.Unmarshal(getPath(t, s, "/metrics").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	h2p, ok := doc["h2p"].(map[string]any)
	if !ok {
		t.Fatal("metrics JSON has no h2p group")
	}
	if h2p["requests"].(float64) != 1 {
		t.Errorf("h2p requests = %v, want 1", h2p["requests"])
	}
	if h2p["sites"].(float64) == 0 || h2p["blocks"].(float64) == 0 {
		t.Errorf("empty fleet accumulator: %v", h2p)
	}
	if top := h2p["top_blocks"].([]any); len(top) == 0 {
		t.Error("no top blocks in JSON metrics")
	}

	prom := getPath(t, s, "/metrics?format=prom").Body.String()
	for _, want := range []string{
		"mbbpd_h2p_requests_total 1\n",
		`mbbpd_h2p_penalty_total{kind="mispredict"}`,
		"mbbpd_h2p_sites ",
		`mbbpd_h2p_top_block_penalty_cycles{rank="1",`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	// Attributed cycles never exceed... at least: the dominant series is
	// non-zero once a sweep attributed penalty.
	if strings.Contains(prom, `mbbpd_h2p_penalty_total{kind="mispredict"} 0`) {
		t.Error("mispredict attribution is zero after an h2p sweep")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog lines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShardRequestIDPropagation: the client's X-Request-ID flows
// through the shard front-end to the replica — the replica's HTTP
// request carries it, its slog lines carry it, and both responses echo
// it — so one ID stitches a fleet-routed request across logs. Absent a
// client ID, the front-end mints one and still threads it through.
func TestShardRequestIDPropagation(t *testing.T) {
	// Built directly (not newTestServer): the test needs the replica's
	// log stream, which the helper silences.
	var replicaLog syncBuffer
	replica, err := New(Config{Logger: slog.New(slog.NewTextHandler(&replicaLog, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := replica.Shutdown(ctx); err != nil {
			t.Errorf("replica shutdown: %v", err)
		}
	})
	var seen syncBuffer // X-Request-ID headers the replica received
	rts := httptest.NewServer(recordRIDs(replica.Handler(), &seen))
	t.Cleanup(rts.Close)

	front := newTestServer(t, Config{ShardOf: []string{rts.URL}})

	const rid = "client-rid-42"
	w := postSweepHeaders(t, front.Handler(), SweepRequest{
		Programs: []string{"li"}, Instructions: 5_000, H2P: true,
	}, map[string]string{requestIDHeader: rid})
	if w.Code != 200 {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(requestIDHeader); got != rid {
		t.Errorf("front-end echoed %q, want %q", got, rid)
	}
	if !strings.Contains(seen.String(), rid) {
		t.Error("replica never received the client's X-Request-ID")
	}
	if !strings.Contains(replicaLog.String(), rid) {
		t.Error("replica log lines do not carry the request ID")
	}

	// No client ID: the front-end mints "<prefix>-<seq>" and the replica
	// still logs the same ID.
	minted := postSweep(t, front.Handler(), SweepRequest{
		Programs: []string{"go"}, Instructions: 5_000,
	}, "")
	id := minted.Header().Get(requestIDHeader)
	if id == "" || !strings.HasPrefix(id, front.ridPrefix+"-") {
		t.Fatalf("minted ID %q lacks the process prefix %q", id, front.ridPrefix)
	}
	if !strings.Contains(replicaLog.String(), id) {
		t.Error("replica log lines do not carry the minted request ID")
	}
}

// recordRIDs serves h while recording every X-Request-ID that arrives
// on the wire.
func recordRIDs(h http.Handler, seen *syncBuffer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Write([]byte(r.Header.Get(requestIDHeader) + "\n"))
		h.ServeHTTP(w, r)
	})
}

// TestRequestIDSanitized: a hostile or over-long client ID is replaced
// with a minted one rather than echoed into headers and logs.
func TestRequestIDSanitized(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, bad := range []string{"evil\nid", "spaced id", strings.Repeat("x", 65)} {
		w := postSweepHeaders(t, s.Handler(), SweepRequest{
			Programs: []string{"li"}, Instructions: 5_000,
		}, map[string]string{requestIDHeader: bad})
		got := w.Header().Get(requestIDHeader)
		if got == bad || got == "" || !strings.HasPrefix(got, s.ridPrefix+"-") {
			t.Errorf("unsafe ID %q echoed as %q", bad, got)
		}
	}
}
