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

// byteCounter counts the bytes written to it.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// TestTraceFileFootprint: saved as v2 files, the workload suite's traces
// at 1M instructions each cost at most 2.5 bytes per instruction (the
// files hold the run-length records as they are, about 1.8 B per
// instruction), so a Save that writes a record per instruction, 8 B,
// fails.
func TestTraceFileFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the whole suite")
	}
	const n = 1_000_000
	var size byteCounter
	var instrs uint64
	for _, b := range workload.All() {
		tr, err := b.Trace(n)
		if err != nil {
			t.Fatal(err)
		}
		before := size
		if err := tr.Save(&size); err != nil {
			t.Fatal(err)
		}
		instrs += tr.Len()
		t.Logf("%-10s %.2f B/instr", b.Name, float64(size-before)/float64(tr.Len()))
	}
	if per := float64(size) / float64(instrs); per > 2.5 {
		t.Fatalf("suite trace files hold %.2f B per instruction, want <= 2.5", per)
	} else {
		t.Logf("suite: %.2f B of file per instruction", per)
	}
}
