package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
)

// fuzzMaxInstructions keeps every admitted fuzz request cheap.
const fuzzMaxInstructions = 3000

// requestCounts reads requests_total and the outcome counters through
// the metric table.
func requestCounts(m *metricsSet) (total int64, outcomes []int64) {
	for _, f := range m.families() {
		switch f.prom {
		case "mbbpd_requests_total":
			total = f.samples[0].value.(int64)
		case "mbbpd_request_outcomes_total":
			for _, s := range f.samples {
				outcomes = append(outcomes, s.value.(int64))
			}
		}
	}
	return total, outcomes
}

// FuzzSweepRequest drives arbitrary body bytes, stream query values and
// Accept headers through the sweep handler. The handler never panics or
// answers 500, answers only 200, 304, 400, 429 or 503, admits nothing
// past MaxInstructions, refuses a streamed multi-config or h2p request
// with 400, and counts each request once in requests_total and in
// exactly one outcome.
func FuzzSweepRequest(f *testing.F) {
	s := newTestServer(f, Config{MaxInstructions: fuzzMaxInstructions, Workers: 2})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, stream, accept string) {
		total, outcomes := requestCounts(s.metrics)

		r := httptest.NewRequest("POST", "/v1/sweep?stream="+url.QueryEscape(stream), bytes.NewReader(body))
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)

		if !slices.Contains([]int{200, 304, 400, 429, 503}, w.Code) {
			t.Fatalf("status %d for body %q stream=%q accept=%q: %s", w.Code, body, stream, accept, w.Body)
		}
		var req SweepRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && w.Code != 400 {
			if n := req.Instructions; n == 0 || n > fuzzMaxInstructions {
				t.Errorf("status %d admitted instructions=%d past the limit %d", w.Code, n, fuzzMaxInstructions)
			}
			streamed := stream == "ndjson" || accept == "application/x-ndjson"
			if streamed && (len(req.Configs) > 0 || req.H2P) {
				t.Errorf("streamed multi-config or h2p request answered %d, want 400", w.Code)
			}
		}

		total2, outcomes2 := requestCounts(s.metrics)
		if total2 != total+1 {
			t.Errorf("requests_total moved by %d, want 1", total2-total)
		}
		moved := 0
		for i := range outcomes {
			moved += int(outcomes2[i] - outcomes[i])
		}
		if moved != 1 {
			t.Errorf("outcome counters moved by %d in total, want exactly one: %v -> %v", moved, outcomes, outcomes2)
		}
	})
}
