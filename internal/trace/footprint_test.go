package trace_test

import (
	"testing"

	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// TestTraceFootprint: over the whole workload suite, a captured trace's
// backing records cost at most 3 bytes per instruction (the suite
// stores about one record in four; 1.83 B per instruction at n = 1M),
// so a capture that reserves a record per instruction, 8 B, fails.
func TestTraceFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the whole suite")
	}
	const n = 200_000
	var bytes, instrs uint64
	for _, b := range workload.All() {
		tr, err := b.Trace(n)
		if err != nil {
			t.Fatal(err)
		}
		bytes += 8 * uint64(trace.RecordsCap(tr))
		instrs += tr.Len()
		t.Logf("%-10s %.2f B/instr", b.Name, 8*float64(trace.RecordsCap(tr))/float64(tr.Len()))
	}
	if per := float64(bytes) / float64(instrs); per > 3 {
		t.Fatalf("suite traces hold %.2f B of records per instruction, want <= 3", per)
	} else {
		t.Logf("suite: %.2f B of records per instruction", per)
	}
}
