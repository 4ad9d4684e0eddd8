package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mbbp/internal/core"
	"mbbp/internal/server"
)

// Two strategies exist only in this test binary. panicKind panics on
// its first lookup, standing in for a predictor bug such as a table
// overflow. gateKind is the paper predictor held at its first lookup
// until the test opens the gate, so a request can be pinned in flight.
const (
	gateKind  core.PredictorKind = 98
	panicKind core.PredictorKind = 99
)

var (
	gateEntered = make(chan struct{}, 8)
	gateOpen    = make(chan struct{})
)

func init() {
	core.RegisterPredictor(core.PredictorInfo{Kind: panicKind, Name: "panicking"},
		func(cfg core.Config) (core.Predictor, error) { return panicking{}, nil })
	core.RegisterPredictor(core.PredictorInfo{Kind: gateKind, Name: "gated"},
		func(cfg core.Config) (core.Predictor, error) {
			cfg.Predictor = core.PredictorPaper
			inner, err := core.NewPredictor(cfg)
			return &gated{Predictor: inner}, err
		})
}

type panicking struct{ core.Predictor }

func (panicking) Kind() core.PredictorKind { return panicKind }
func (panicking) Lookup(uint32, uint32)    { panic("predictor table overflow") }
func (panicking) StateBits() int           { return 0 }

type gated struct {
	core.Predictor
	once sync.Once
}

func (g *gated) Kind() core.PredictorKind { return gateKind }

func (g *gated) Lookup(history, blockAddr uint32) {
	g.once.Do(func() {
		gateEntered <- struct{}{}
		<-gateOpen
	})
	g.Predictor.Lookup(history, blockAddr)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func sweepBody(predictor core.PredictorKind, history int) string {
	return fmt.Sprintf(`{"config":{"Predictor":%d,"HistoryBits":%d},"programs":["li"],"instructions":20000}`,
		predictor, history)
}

// TestJobPanicFailsOnlyItsRequest: a sweep whose predictor panics gets
// a 500 naming the panic while two other sweeps are held in flight on
// the same pool; those complete with 200 once released, a following
// sweep and /healthz answer, and the panic is counted in
// mbbpd_job_panics_total.
func TestJobPanicFailsOnlyItsRequest(t *testing.T) {
	srv, err := server.New(server.Config{
		Workers: 4,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const held = 2
	var wg sync.WaitGroup
	codes := make([]int, held)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _ = post(t, ts.URL, sweepBody(gateKind, 8+i))
		}()
	}
	for range held {
		<-gateEntered
	}

	code, body := post(t, ts.URL, sweepBody(panicKind, 10))
	if code != http.StatusInternalServerError || !strings.Contains(body, "predictor table overflow") {
		t.Errorf("panicking sweep = %d %s, want 500 naming the panic", code, body)
	}

	close(gateOpen)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("in-flight sweep %d = %d, want 200", i, c)
		}
	}
	if code, body := post(t, ts.URL, sweepBody(core.PredictorPaper, 10)); code != http.StatusOK {
		t.Errorf("sweep after the panic = %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(health, []byte("ok")) {
		t.Errorf("/healthz after the panic = %d %q", resp.StatusCode, health)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(prom, []byte("\nmbbpd_job_panics_total 1\n")) {
		t.Errorf("prom exposition lacks mbbpd_job_panics_total 1:\n%s", prom)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || doc["job_panics"] != 1.0 {
		t.Errorf("/metrics job_panics = %v (%v), want 1", doc["job_panics"], err)
	}
}
