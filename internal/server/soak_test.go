package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mbbp/internal/core"
	"mbbp/internal/harness"
	"mbbp/internal/metrics"
)

// TestSoakConcurrentSweeps fires 72 concurrent sweep requests (a mix
// of three configurations, JSON and NDJSON) at one server and checks
// every response against the serial reference byte-for-byte: no lost,
// duplicated, or cross-wired results under load. Run with -race.
func TestSoakConcurrentSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	s := newTestServer(t, Config{QueueDepth: 128})
	opts := harness.Options{Instructions: 20_000, Programs: []string{"li", "go", "swim"}}

	near := core.DefaultConfig()
	near.NearBlock = true
	dsel := core.DefaultConfig()
	dsel.Selection = metrics.DoubleSelection
	dsel.NumSTs = 4
	configs := []core.Config{core.DefaultConfig(), near, dsel}

	// Expected bodies from the serial reference path.
	ts, err := harness.LoadTracesOn(harness.Serial(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(configs))
	refs := make([]*harness.SuiteResult, len(configs))
	for i, cfg := range configs {
		ref, err := harness.RunConfigOn(harness.Serial(), ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		want[i], err = MarshalResponse(BuildSweepResponse(cfg, opts, ref))
		if err != nil {
			t.Fatal(err)
		}
	}

	const clients = 72
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ci := c % len(configs)
			req := SweepRequest{
				Config:       mustConfigJSON(configs[ci]),
				Programs:     opts.Programs,
				Instructions: opts.Instructions,
			}
			if c%4 == 3 {
				// Every fourth client streams instead.
				if err := checkStream(s.Handler(), req, opts.Programs, refs[ci]); err != nil {
					errs <- fmt.Errorf("client %d (stream, config %d): %w", c, ci, err)
				}
				return
			}
			w := postSweepRaw(s.Handler(), req, "")
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("client %d (config %d): status %d: %s", c, ci, w.Code, w.Body.String())
				return
			}
			if !bytes.Equal(w.Body.Bytes(), want[ci]) {
				errs <- fmt.Errorf("client %d (config %d): body differs from serial reference", c, ci)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Accounting: every client either succeeded or showed up in errs.
	var m mVals
	m.read(t, s)
	if m.ok != clients {
		t.Errorf("requests_ok = %d, want %d", m.ok, clients)
	}
	if m.total != clients {
		t.Errorf("requests_total = %d, want %d", m.total, clients)
	}
	// Each (program, n) pair captures at most once across all clients.
	if misses := s.cache.Stats().Misses; misses != uint64(len(opts.Programs)) {
		t.Errorf("trace captures = %d, want %d (shared cache defeated)", misses, len(opts.Programs))
	}
}

type mVals struct{ total, ok int64 }

func (m *mVals) read(t *testing.T, s *Server) {
	t.Helper()
	m.total = s.metrics.requestsTotal.Load()
	m.ok = s.metrics.requestsOK.Load()
}

func mustConfigJSON(cfg core.Config) []byte {
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// postSweepRaw is postSweep without *testing.T, safe from client
// goroutines (t.Fatal is test-goroutine-only).
func postSweepRaw(h http.Handler, req SweepRequest, query string) *httptest.ResponseRecorder {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	r := httptest.NewRequest("POST", "/v1/sweep"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// checkStream validates an NDJSON response against the reference.
func checkStream(h http.Handler, req SweepRequest, programs []string, ref *harness.SuiteResult) error {
	w := postSweepRaw(h, req, "?stream=ndjson")
	if w.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(programs)+1 {
		return fmt.Errorf("stream has %d lines, want %d", len(lines), len(programs)+1)
	}
	for i, name := range programs {
		var line struct {
			Program string        `json:"program"`
			Result  ProgramResult `json:"result"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
		if line.Program != name || line.Result.Result != ref.Per[name] {
			return fmt.Errorf("line %d: wrong program or counters (%s)", i, line.Program)
		}
	}
	var final struct {
		Aggregates map[string]ProgramResult `json:"aggregates"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		return fmt.Errorf("final line: %w", err)
	}
	if final.Aggregates["CINT95"].Result != ref.Int || final.Aggregates["CFP95"].Result != ref.FP {
		return fmt.Errorf("aggregates differ from reference")
	}
	return nil
}
