package cost

import "testing"

// TestSection5CostTotals checks the paper's §5 arithmetic: PHT 16 Kbit,
// ST 8 Kbit, NLS 20 Kbit, BIT 16 Kbit, BBR ≈ 0.3 Kbit, and the three
// configuration totals of 52, 80 and 72 Kbits.
func TestSection5CostTotals(t *testing.T) {
	e := PaperDefault()
	kb := func(bits int) float64 { return float64(bits) / 1024 }

	if got := kb(e.PHT); got != 16 {
		t.Errorf("PHT = %.2f Kbit, want 16", got)
	}
	if got := kb(e.ST); got != 8 {
		t.Errorf("ST = %.2f Kbit, want 8", got)
	}
	if got := kb(e.NLS); got != 20 {
		t.Errorf("NLS = %.2f Kbit, want 20", got)
	}
	if got := kb(e.BIT); got != 16 {
		t.Errorf("BIT = %.2f Kbit, want 16", got)
	}
	if got := kb(e.BBR); got < 0.25 || got > 0.45 {
		t.Errorf("BBR = %.2f Kbit, want ~0.3", got)
	}
	if got := kb(e.SingleBlockTotal()); got < 52 || got > 52.5 {
		t.Errorf("single block total = %.2f Kbit, want ~52", got)
	}
	if got := kb(e.DualSingleTotal()); got < 80 || got > 80.5 {
		t.Errorf("dual single total = %.2f Kbit, want ~80", got)
	}
	if got := kb(e.DualDoubleTotal()); got < 72 || got > 72.5 {
		t.Errorf("dual double total = %.2f Kbit, want ~72", got)
	}
}

// TestCostScaling checks the §5 scaling claims: doubling the block width
// doubles the PHT cost, and every extra predicted block adds one select
// table and one target array.
func TestCostScaling(t *testing.T) {
	p := PaperParams()
	base := Compute(p)

	p16 := p
	p16.BlockWidth = 16
	wide := Compute(p16)
	if wide.PHT != 2*base.PHT {
		t.Errorf("PHT at W=16 = %d, want %d", wide.PHT, 2*base.PHT)
	}

	if extra := base.DualSingleTotal() - base.SingleBlockTotal(); extra != base.ST+base.NLS {
		t.Errorf("dual-single adds %d bits, want ST+NLS = %d", extra, base.ST+base.NLS)
	}
}

// TestNearBlockCosts checks near-block encoding grows the BIT (3 bits
// per instruction) and the selector (start offset bits).
func TestNearBlockCosts(t *testing.T) {
	p := PaperParams()
	p.NearBlock = true
	near := Compute(p)
	base := PaperDefault()
	if near.BIT != base.BIT*3/2 {
		t.Errorf("near-block BIT = %d, want %d", near.BIT, base.BIT*3/2)
	}
	if near.ST <= base.ST {
		t.Errorf("near-block ST = %d should exceed %d", near.ST, base.ST)
	}
}

// TestTable4BBRBits checks the bad-branch-recovery entry size against
// the paper's Table 4 field widths: 1+1+1 flag bits, an 8-12 bit PHT
// index, an 8-12 bit corrected GHR, an 8-11 bit replacement selector,
// and a 10-bit corrected cache index.
func TestTable4BBRBits(t *testing.T) {
	// The paper's default configuration (h=10, W=8) gives ~41 bits per
	// entry; 8 entries land at the §5 figure of ~0.3 Kbit.
	p := PaperParams()
	total := p.BBRBits()
	if per := total / p.BBREntries; per < 38 || per > 44 {
		t.Errorf("default BBR entry = %d bits, want ~41", per)
	}
	if total < 300 || total > 350 {
		t.Errorf("8 BBR entries = %d bits, want ~320 (0.3 Kbit)", total)
	}

	// Near-block selectors widen the replacement selector.
	p.NearBlock = true
	if near := p.BBRBits(); near <= total {
		t.Errorf("near-block BBR = %d, should exceed %d", near, total)
	}
}
