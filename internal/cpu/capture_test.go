package cpu_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mbbp/internal/asm"
	"mbbp/internal/cpu"
	"mbbp/internal/isa"
	"mbbp/internal/trace"
	"mbbp/internal/workload"
)

// The capture tests live with the interpreter, in the external test
// package, because their oracle is the reference interpreter of this
// package's tests and trace.Capture is what drives RunPlain and Step.

// reference is the capture to compare against: every record the
// reference interpreter (reference_test.go) retires, appended one at a
// time, and its error. It shares no execution code with Capture.
func reference(p *isa.Program, cfg cpu.Config, n uint64) (*trace.Buffer, error) {
	b := trace.NewBuffer(p.Name)
	_, err := cpu.RunReference(p, cfg, n, func(r cpu.Retired) bool {
		b.Append(r)
		return true
	})
	return b, err
}

// checkCapture requires Capture(p, cfg, n) to equal the reference: the
// same name, length and records, or the same machine fault.
func checkCapture(t *testing.T, p *isa.Program, cfg cpu.Config, n uint64) {
	t.Helper()
	want, wantErr := reference(p, cfg, n)
	got, err := trace.Capture(p, cfg, n)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s n=%d: Capture error %v, reference error %v", p.Name, n, err, wantErr)
		}
		return
	}
	sameRecords(t, fmt.Sprintf("%s n=%d: Capture against the reference", p.Name, n), got, want)
}

// midRunLengths returns up to k trace lengths at which b's last
// instruction is a folded plain one short of its run's end, so a
// capture of that length stops inside a run.
func midRunLengths(b *trace.Buffer, k int) []uint64 {
	var ns []uint64
	recs, _ := b.Clone().Rest()
	at := uint64(0)
	for i, p := range recs {
		if p.Run() >= 2 && i%7 == 3 {
			ns = append(ns, at+1+uint64(p.Run())/2)
			if len(ns) == k {
				break
			}
		}
		at += 1 + uint64(p.Run())
	}
	return ns
}

// TestCaptureMatchesReference: for every workload program, Capture's
// run-level loop gives exactly the records of appending each retired
// instruction in turn — at trace lengths that end inside a run, at
// record boundaries and at the lengths the experiments use.
func TestCaptureMatchesReference(t *testing.T) {
	cfg := cpu.DefaultConfig()
	const long = 60_000
	for _, b := range workload.All() {
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		full, err := reference(p, cfg, long)
		if err != nil {
			t.Fatal(err)
		}
		ns := append([]uint64{0, 1, 2, 3, 17, 4096, long}, midRunLengths(full, 6)...)
		if len(ns) < 10 {
			t.Fatalf("%s: found only %d lengths ending inside a run", b.Name, len(ns)-7)
		}
		for _, n := range ns {
			checkCapture(t, p, cfg, n)
		}
	}
}

// TestCaptureEdges covers what the workload programs do not: a plain
// run past the 255 one record folds, restarts on halt, a halt without
// restart, and machine faults inside and at the end of a plain run.
func TestCaptureEdges(t *testing.T) {
	plains := strings.Repeat("    addi r1, r1, 1\n", 600)
	cases := []struct {
		name, src string
		cfg       cpu.Config
		ns        []uint64
		fault     string // in the error at the largest n, if any
	}{
		// 600 plain instructions between branches: runs of 255, 255
		// and 89, ending at and around the full run.
		{"long-run", "main:\n" + plains + "    jmp main\n",
			cpu.DefaultConfig(), []uint64{255, 256, 257, 511, 512, 600, 601, 1203, 5000}, ""},
		// A short program that halts, restarted again and again.
		{"restart", "main:\n    addi r1, r1, 1\n    addi r2, r2, 1\n    halt\n",
			cpu.DefaultConfig(), []uint64{2, 3, 4, 5, 7, 1000}, ""},
		// The same program without restart halts after three.
		{"halt", "main:\n    addi r1, r1, 1\n    addi r2, r2, 1\n    halt\n",
			cpu.Config{HeapWords: 64}, []uint64{1, 2, 3, 4, 1000}, ""},
		// A load outside memory in the middle of a plain run.
		{"load-fault", "main:\n    addi r1, r1, 1\n    li r2, -5\n    lw r3, 0(r2)\n    halt\n",
			cpu.DefaultConfig(), []uint64{2, 3, 4, 100}, "lw address -5"},
		// Falling off the end of the code after a plain run.
		{"pc-fault", "main:\n    addi r1, r1, 1\n    addi r1, r1, 1\n",
			cpu.DefaultConfig(), []uint64{2, 3, 100}, "pc 2 outside code"},
		// An indirect jump to nowhere right after a plain run.
		{"target-fault", "main:\n    li r1, -1\n    addi r2, r2, 1\n    jr r1\n",
			cpu.DefaultConfig(), []uint64{2, 3, 100}, "jr target -1"},
	}
	for _, c := range cases {
		p, err := asm.Assemble(c.name, c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.ns {
			checkCapture(t, p, c.cfg, n)
		}
		_, err = trace.Capture(p, c.cfg, c.ns[len(c.ns)-1])
		if (err != nil) != (c.fault != "") || err != nil && !strings.Contains(err.Error(), c.fault) {
			t.Errorf("%s: Capture error %v, want one naming %q", c.name, err, c.fault)
		}
	}
	// The long run really reaches the fold limit.
	p, _ := asm.Assemble("long-run", "main:\n"+plains+"    jmp main\n")
	b, err := trace.Capture(p, cpu.DefaultConfig(), 600)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := b.Rest(); len(recs) != 3 || recs[0].Run() != 255 {
		t.Fatalf("600 plain instructions gave %d records, the first with run %d; want 3, run 255", len(recs), recs[0].Run())
	}
}

// sameRecords requires got to hold want's name, length and records.
func sameRecords(t *testing.T, label string, got, want *trace.Buffer) {
	t.Helper()
	gotRecs, _ := got.Clone().Rest()
	wantRecs, _ := want.Clone().Rest()
	if got.Name != want.Name || got.Len() != want.Len() || !slices.Equal(gotRecs, wantRecs) {
		t.Fatalf("%s: %q with %d instructions in %d records, want %q with %d in %d", label,
			got.Name, got.Len(), len(gotRecs), want.Name, want.Len(), len(wantRecs))
	}
}
