package workload

import (
	"testing"

	"mbbp/internal/isa"
	"mbbp/internal/trace"
)

// TestAllAssembleAndRun checks that every registered benchmark
// assembles, validates, and executes 200k instructions without faults,
// and that its dynamic stream has the control-flow character its suite
// requires.
func TestAllAssembleAndRun(t *testing.T) {
	const n = 200_000
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			buf, err := b.Trace(n)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			if buf.Len() != n {
				t.Fatalf("trace length = %d, want %d", buf.Len(), n)
			}
			s := trace.Collect(buf)
			if s.CondBranches() == 0 {
				t.Fatalf("no conditional branches executed")
			}
			bb := s.MeanBasicBlock()
			if bb < 2 || bb > 128 {
				t.Errorf("mean basic block %.2f out of plausible range", bb)
			}
			t.Logf("%s: %s", b.Name, s)
		})
	}
}

// TestSuiteShape asserts the paper-relevant differences between the
// integer and floating-point halves: FP programs have larger basic
// blocks and more-biased (loop) branches on average.
func TestSuiteShape(t *testing.T) {
	const n = 150_000
	avg := func(names []string) (bb, taken float64) {
		for _, name := range names {
			b, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := b.Trace(n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := trace.Collect(buf)
			bb += s.MeanBasicBlock()
			taken += s.CondTakenRate()
		}
		k := float64(len(names))
		return bb / k, taken / k
	}
	intBB, _ := avg(IntNames())
	fpBB, _ := avg(FPNames())
	if fpBB <= intBB {
		t.Errorf("FP mean basic block %.2f should exceed Int %.2f", fpBB, intBB)
	}
	t.Logf("mean basic block: int=%.2f fp=%.2f", intBB, fpBB)
}

// TestTraceSeeded checks seed replacement changes the integer streams
// while keeping them statistically similar, and leaves deterministic FP
// kernels alone.
func TestTraceSeeded(t *testing.T) {
	b, err := Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := b.TraceSeeded(50_000, 111)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := b.TraceSeeded(50_000, 222)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := trace.Collect(t1), trace.Collect(t2)
	if s1.CondTaken == s2.CondTaken {
		t.Error("different seeds produced identical branch behavior")
	}
	// Same program structure: block sizes within 20%.
	if r := s1.MeanBasicBlock() / s2.MeanBasicBlock(); r < 0.8 || r > 1.25 {
		t.Errorf("seeded traces structurally different: bb ratio %.2f", r)
	}

	// A seedless FP kernel is untouched by seeding.
	fp, err := Get("swim")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := fp.TraceSeeded(20_000, 111)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fp.Trace(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if i, same := sameInstructions(f1, f2); !same {
		t.Fatalf("deterministic kernel diverged at %d", i)
	}
}

// TestTraceSeededDoesNotMutateOriginal guards the program cache: after
// a seeded run, the benchmark's normal trace is unchanged.
func TestTraceSeededDoesNotMutateOriginal(t *testing.T) {
	b, err := Get("perl")
	if err != nil {
		t.Fatal(err)
	}
	before, err := b.Trace(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.TraceSeeded(30_000, 999); err != nil {
		t.Fatal(err)
	}
	after, err := b.Trace(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if i, same := sameInstructions(before, after); !same {
		t.Fatalf("seeded trace mutated the cached program (record %d)", i)
	}
}

// sameInstructions walks fresh cursors of a and b in step and reports
// whether they hold the same instructions, or the index of the first
// that differs.
func sameInstructions(a, b *trace.Buffer) (int, bool) {
	ca, cb := a.Clone(), b.Clone()
	for i := 0; ; i++ {
		ra, oka := ca.Next()
		rb, okb := cb.Next()
		if ra != rb || oka != okb {
			return i, false
		}
		if !oka {
			return i, true
		}
	}
}

// TestClassesPresent checks the suite as a whole exercises every fetch
// class: returns, calls, indirect jumps, conditional branches.
func TestClassesPresent(t *testing.T) {
	var total [isa.NumClasses]uint64
	for _, b := range All() {
		buf, err := b.Trace(100_000)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		s := trace.Collect(buf)
		for c, v := range s.ByClass {
			total[c] += v
		}
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if c == isa.ClassIndirectCall {
			continue // the suite uses jr tables, jalr is optional
		}
		if total[c] == 0 {
			t.Errorf("class %v never executed across the suite", c)
		}
	}
}
