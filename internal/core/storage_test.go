package core

import (
	"testing"

	"mbbp/internal/cost"
	"mbbp/internal/isa"
	"mbbp/internal/metrics"
	"mbbp/internal/pht"
)

// TestStateBitsMatchesCostModel pins the measured breakdown of live
// engines against the cost package's Table 7 closed forms for the
// paper's walkthrough configuration.
func TestStateBitsMatchesCostModel(t *testing.T) {
	p := cost.PaperParams()
	est := cost.Compute(p)

	single := DefaultConfig()
	single.Mode = SingleBlock
	single.BITEntries = p.BITEntries
	eng, err := New(single)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.StateBits()
	if s.PHT != est.PHT {
		t.Errorf("PHT = %d, want %d", s.PHT, est.PHT)
	}
	if s.BIT != est.BIT {
		t.Errorf("BIT = %d, want %d", s.BIT, est.BIT)
	}
	if s.SelectTable != 0 {
		t.Errorf("single-block SelectTable = %d, want 0", s.SelectTable)
	}
	if s.TargetArray != est.NLS {
		t.Errorf("TargetArray = %d, want %d", s.TargetArray, est.NLS)
	}

	dual := DefaultConfig() // dual/single-select, BIT in cache
	eng, err = New(dual)
	if err != nil {
		t.Fatal(err)
	}
	s = eng.StateBits()
	if s.SelectTable != est.ST {
		t.Errorf("dual SelectTable = %d, want %d", s.SelectTable, est.ST)
	}
	if s.BIT != 0 {
		t.Errorf("in-cache BIT = %d, want 0", s.BIT)
	}
	if s.TargetArray != 2*est.NLS {
		t.Errorf("dual TargetArray = %d, want %d", s.TargetArray, 2*est.NLS)
	}
	if s.Total() != s.PHT+s.BIT+s.SelectTable+s.TargetArray {
		t.Error("Total is not the sum of the parts")
	}

	double := DefaultConfig()
	double.Selection = metrics.DoubleSelection
	eng, err = New(double)
	if err != nil {
		t.Fatal(err)
	}
	s = eng.StateBits()
	if s.SelectTable != est.STDouble {
		t.Errorf("double SelectTable = %d, want %d", s.SelectTable, est.STDouble)
	}
	if s.BIT != 0 {
		t.Errorf("double-selection BIT = %d, want 0", s.BIT)
	}
}

// TestScalarBackedEquivalence pins RunScalar, whose counters are
// bit-packed, against a one-byte-per-counter model of the Figure 6
// baseline written here from its definition: numTables tables picked by
// the branch address's low bits, gshare-indexed by the per-branch GHR.
func TestScalarBackedEquivalence(t *testing.T) {
	const historyBits, numTables, selShift = 10, 8, 3
	tr := randomTrace(11, 5000)
	got := RunScalar(tr, historyBits, numTables)

	counters := make([]pht.Counter, numTables<<historyBits)
	for i := range counters {
		counters[i] = pht.WeaklyNotTaken
	}
	var want ScalarResult
	var ghr uint32
	tr.Reset()
	for {
		r, ok := tr.Next()
		if !ok {
			break
		}
		if r.Class != isa.ClassCond {
			continue
		}
		want.CondBranches++
		i := (r.PC&(numTables-1))<<historyBits | (ghr^r.PC>>selShift)&(1<<historyBits-1)
		if counters[i].Taken() != r.Taken {
			want.CondMispredicts++
		}
		switch {
		case r.Taken && counters[i] < 3:
			counters[i]++
		case !r.Taken && counters[i] > 0:
			counters[i]--
		}
		ghr <<= 1
		if r.Taken {
			ghr |= 1
		}
	}
	if got.CondBranches != want.CondBranches || got.CondMispredicts != want.CondMispredicts {
		t.Errorf("scalar baseline diverges:\npacked: %+v\nmodel:  %+v", got, want)
	}
	if want.CondBranches == 0 || want.CondMispredicts == 0 {
		t.Fatalf("trace exercises nothing: %+v", want)
	}
}
