package mbbp

import (
	"strings"
	"testing"

	"mbbp/internal/isa"
)

// TestPublicAPIRoundTrip exercises the documented quick-start flow
// through the façade only.
func TestPublicAPIRoundTrip(t *testing.T) {
	tr, err := WorkloadTrace("li", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(tr)
	if res.Instructions != 100_000 {
		t.Errorf("instructions = %d", res.Instructions)
	}
	if res.IPCf() <= 0 || res.BEP() < 0 {
		t.Errorf("metrics implausible: %+v", res)
	}
}

func TestWorkloadLists(t *testing.T) {
	all := Workloads()
	if len(all) != 18 {
		t.Fatalf("suite has %d programs, want 18", len(all))
	}
	if len(IntWorkloads()) != 8 || len(FPWorkloads()) != 10 {
		t.Errorf("suite split %d/%d, want 8/10", len(IntWorkloads()), len(FPWorkloads()))
	}
	if _, err := WorkloadTrace("nonesuch", 10); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestAssembleAndSimulate(t *testing.T) {
	prog, err := Assemble("tiny", `
main:
    li r1, 100
loop:
    subi r1, r1, 1
    bnez r1, loop
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(prog, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = SingleBlock
	eng, err := NewEngineFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run(tr)
	// A simple counted loop should predict nearly perfectly.
	if res.CondAccuracy() < 0.95 {
		t.Errorf("loop accuracy = %.3f", res.CondAccuracy())
	}
}

func TestAssembleErrorsSurface(t *testing.T) {
	_, err := Assemble("bad", "wibble r1")
	if err == nil || !strings.Contains(err.Error(), "unknown mnemonic") {
		t.Errorf("error = %v", err)
	}
}

func TestScalarBaselineFacade(t *testing.T) {
	tr, err := WorkloadTrace("perl", 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rate := ScalarMispredictRate(tr, 10, 8)
	if rate <= 0 || rate >= 0.5 {
		t.Errorf("scalar rate = %.3f", rate)
	}
}

func TestCostFacade(t *testing.T) {
	e := EstimateCost(PaperCostParams())
	if e.SingleBlockTotal()/1024 != 52 {
		t.Errorf("single block total = %d Kbit, want 52", e.SingleBlockTotal()/1024)
	}
}

func TestCacheGeometryFacade(t *testing.T) {
	g := CacheGeometry(CacheSelfAligned, 8)
	if g.Banks != 16 || g.LineSize != 8 {
		t.Errorf("self-aligned geometry = %+v", g)
	}
	cfg := DefaultConfig()
	cfg.Geometry = g
	if _, err := NewEngineFromConfig(cfg); err != nil {
		t.Errorf("self-aligned config rejected: %v", err)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryBits = 0
	if _, err := NewEngineFromConfig(cfg); err == nil {
		t.Error("history 0 should be rejected")
	}
	cfg = DefaultConfig()
	cfg.Mode = SingleBlock
	cfg.Selection = DoubleSelection
	if _, err := NewEngineFromConfig(cfg); err == nil {
		t.Error("single block + double selection should be rejected")
	}
}

// TestCaptureTraceRejectsBadPrograms: hand-built programs that would
// index outside the register files or the code are errors from
// CaptureTrace, not panics.
func TestCaptureTraceRejectsBadPrograms(t *testing.T) {
	halt := isa.Inst{Op: isa.HALT}
	cases := []struct {
		name string
		code []isa.Inst
		want string
	}{
		{"fp-rd", []isa.Inst{{Op: isa.FADD, Rd: 20, Rs1: 1, Rs2: 2}, halt}, "FP register out of range"},
		{"fp-rs2", []isa.Inst{{Op: isa.FSW, Rs1: 1, Rs2: 16}, halt}, "FP register out of range"},
		{"fcmp-rs1", []isa.Inst{{Op: isa.FCMP, Rd: 1, Rs1: 31}, halt}, "FP register out of range"},
		{"int-rd", []isa.Inst{{Op: isa.ADD, Rd: 32, Rs1: 1, Rs2: 2}, halt}, "register out of range"},
		{"int-rs1", []isa.Inst{{Op: isa.JR, Rs1: 200}, halt}, "register out of range"},
		{"target", []isa.Inst{{Op: isa.JMP, Imm: 5}, halt}, "target 5 outside code"},
		{"opcode", []isa.Inst{{Op: 200}, halt}, "invalid opcode 200"},
		{"empty", nil, "has no code"},
	}
	for _, c := range cases {
		tr, err := CaptureTrace(&Program{Name: c.name, Code: c.code}, 100)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CaptureTrace = %v, %v; want an error naming %q", c.name, tr, err, c.want)
		}
	}
	tr, err := CaptureTrace(&Program{Name: "entry", Code: []isa.Inst{halt}, Entry: 3}, 100)
	if err == nil || !strings.Contains(err.Error(), "entry 3 outside code") {
		t.Errorf("entry: CaptureTrace = %v, %v; want an error naming the entry", tr, err)
	}
}
