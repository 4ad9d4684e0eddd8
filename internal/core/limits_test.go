package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// oversizedProbes are one-field configs that used to pass Validate and
// then crash New: the first five asked for more memory than any host
// has (a fatal out-of-memory error recover cannot catch), the rest
// panicked inside a constructor. Each must now be a field error.
var oversizedProbes = []struct {
	doc, field string
}{
	{`{"RASSize":1099511627776}`, "RASSize"},
	{`{"TargetEntries":1099511627776}`, "TargetEntries"},
	{`{"BITEntries":1099511627776}`, "BITEntries"},
	{`{"ICacheLines":1099511627776,"ICacheMissPenalty":1}`, "ICacheLines"},
	{`{"HistoryBits":26,"NumPHTs":64}`, "HistoryBits"},
	{`{"NumPHTs":1099511627776}`, "NumPHTs"},
	{`{"NumSTs":1099511627776}`, "NumSTs"},
	{`{"Geometry":{"BlockWidth":128,"LineSize":128}}`, "Geometry.BlockWidth"},
	{`{"Geometry":{"LineSize":1099511627776}}`, "Geometry.LineSize"},
}

// TestValidateRejectsUnsupportedConfigs: every oversized probe, and a
// Storage value other than 0, fails to load with a *FieldError naming
// its field.
func TestValidateRejectsUnsupportedConfigs(t *testing.T) {
	cases := append([]struct{ doc, field string }{{`{"Storage":1}`, "Storage"}}, oversizedProbes...)
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			_, err := LoadConfigJSON(strings.NewReader(tc.doc))
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("LoadConfigJSON(%s) = %v, want ErrInvalidConfig", tc.doc, err)
			}
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != tc.field {
				t.Errorf("error %v, want a *FieldError on %s", err, tc.field)
			}
		})
	}
}

// TestValidateAcceptsSizeCaps: each cap is inclusive — a config exactly
// at it validates, and one step past it does not.
func TestValidateAcceptsSizeCaps(t *testing.T) {
	cases := []struct {
		name        string
		atCap, over func(*Config)
	}{
		{"RASSize",
			func(c *Config) { c.RASSize = maxRASSize },
			func(c *Config) { c.RASSize = maxRASSize + 1 }},
		{"TargetEntries",
			func(c *Config) { c.TargetEntries = maxTargetEntries },
			func(c *Config) { c.TargetEntries = 2 * maxTargetEntries }},
		{"BITEntries",
			func(c *Config) { c.Mode = SingleBlock; c.BITEntries = maxBITEntries },
			func(c *Config) { c.Mode = SingleBlock; c.BITEntries = 2 * maxBITEntries }},
		{"ICacheLines",
			func(c *Config) { c.ICacheLines, c.ICacheMissPenalty = maxICacheLines, 1 },
			func(c *Config) { c.ICacheLines, c.ICacheMissPenalty = 2*maxICacheLines, 1 }},
		{"HistoryBits",
			func(c *Config) { c.HistoryBits = maxHistoryBits },
			func(c *Config) { c.HistoryBits = maxHistoryBits + 1 }},
		{"NumPHTs",
			func(c *Config) { c.NumPHTs = maxTableEntries >> c.HistoryBits },
			func(c *Config) { c.NumPHTs = 2 * maxTableEntries >> c.HistoryBits }},
		{"NumSTs",
			func(c *Config) { c.NumSTs = maxTableEntries >> c.HistoryBits },
			func(c *Config) { c.NumSTs = 2 * maxTableEntries >> c.HistoryBits }},
		{"Geometry.BlockWidth",
			func(c *Config) { c.Geometry.BlockWidth, c.Geometry.LineSize = maxBlockWidth, maxBlockWidth },
			func(c *Config) { c.Geometry.BlockWidth, c.Geometry.LineSize = 2*maxBlockWidth, 2*maxBlockWidth }},
		{"Geometry.LineSize",
			func(c *Config) { c.Geometry.LineSize = maxLineSize },
			func(c *Config) { c.Geometry.LineSize = 2 * maxLineSize }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.atCap(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("at the cap: %v", err)
			}
			cfg = DefaultConfig()
			tc.over(&cfg)
			var fe *FieldError
			if err := cfg.Validate(); !errors.As(err, &fe) || fe.Field != tc.name {
				t.Errorf("past the cap: %v, want a *FieldError on %s", err, tc.name)
			}
		})
	}
}

// FuzzConfigJSON: LoadConfigJSON never panics; every config it accepts
// round-trips through CanonicalBytes to an equal Config, New builds an
// engine from it without panicking, and the engine runs a short fixed
// trace: every instruction is counted, no more conditionals mispredict
// than there are, and a second Run after Reset gives the same Result.
// Fuzzing it drives the packed arrays at the selector, code and tag
// widths the validator admits. Seed inputs, including the oversized
// probes above, live under testdata/fuzz/FuzzConfigJSON; the seeds
// added here are accepted configs, one per packed-storage shape:
// a finite 3-bit BIT, 13-bit TAGE tags, double-selection and 4-block
// select tables, and a BTB.
func FuzzConfigJSON(f *testing.F) {
	for _, doc := range []string{
		`{"Mode":0,"NearBlock":true,"BITEntries":512}`,
		`{"Predictor":1,"TAGE":{"TagBits":13}}`,
		`{"NearBlock":true,"Selection":1,"NumSTs":8}`,
		`{"TargetArray":1,"TargetEntries":64,"BTBAssoc":4}`,
		`{"NumBlocks":4,"NearBlock":true,"Geometry":{"BlockWidth":16,"LineSize":16}}`,
	} {
		f.Add([]byte(doc))
	}
	tr := randomTrace(1, 2000)
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := LoadConfigJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		canon, err := cfg.CanonicalBytes()
		if err != nil {
			t.Fatalf("CanonicalBytes of an accepted config: %v", err)
		}
		back, err := LoadConfigJSON(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes %s do not load: %v", canon, err)
		}
		if back != cfg {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New rejected a validated config %s: %v", canon, err)
		}
		first := e.Run(tr)
		if first.Instructions != tr.Len() {
			t.Errorf("%s: %d instructions counted, trace has %d", canon, first.Instructions, tr.Len())
		}
		if first.CondMispredicts > first.CondBranches {
			t.Errorf("%s: %d conditional mispredicts of %d conditionals", canon, first.CondMispredicts, first.CondBranches)
		}
		e.Reset()
		if again := e.Run(tr); again != first {
			t.Errorf("%s: Run after Reset\n got %+v\nwant %+v", canon, again, first)
		}
	})
}
