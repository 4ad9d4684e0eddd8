package core

import (
	"errors"
	"strings"
	"testing"
)

func hashJSON(t *testing.T, doc string) string {
	t.Helper()
	cfg, err := LoadConfigJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("LoadConfigJSON(%s): %v", doc, err)
	}
	h, err := cfg.CanonicalHash()
	if err != nil {
		t.Fatalf("CanonicalHash(%s): %v", doc, err)
	}
	return h
}

// TestCanonicalHashEquivalence is the differential key table: two JSON
// spellings hash equal exactly when LoadConfigJSON normalizes them to
// the same validated Config. Field order never matters; writing a
// default out explicitly never matters; changing any knob that reaches
// the response body always matters.
func TestCanonicalHashEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		a, b  string
		equal bool
	}{
		{"field order", `{"HistoryBits":12,"NumSTs":4}`, `{"NumSTs":4,"HistoryBits":12}`, true},
		{"empty vs explicit default", `{}`, `{"HistoryBits":10}`, true},
		{"all defaults written out", `{}`,
			`{"HistoryBits":10,"NumPHTs":1,"NumSTs":1,"RASSize":32,"TargetEntries":256,"BTBAssoc":4,"Mode":1}`, true},
		{"default geometry explicit", `{}`,
			`{"Geometry":{"Kind":0,"BlockWidth":8,"LineSize":8,"Banks":8}}`, true},
		{"history differs", `{"HistoryBits":12}`, `{"HistoryBits":13}`, false},
		{"near-block differs", `{}`, `{"NearBlock":true}`, false},
		{"selection differs", `{"NumSTs":4}`, `{"NumSTs":4,"Selection":1}`, false},
		// NumBlocks 0 means "derive from Mode" (2 under dual-block); the
		// explicit spelling is a distinct struct and a distinct echoed
		// Config in the response body, so it must hash apart.
		{"derived vs explicit block count", `{}`, `{"NumBlocks":2}`, false},
		{"target array differs", `{}`, `{"TargetArray":1,"TargetEntries":64}`, false},
		{"paper vs tage", `{}`, `{"Predictor":1}`, false},
		{"tage zero params vs omitted", `{"Predictor":1}`, `{"Predictor":1,"TAGE":{}}`, true},
		{"tage field order", `{"Predictor":1,"TAGE":{"Tables":6,"TagBits":9}}`,
			`{"TAGE":{"TagBits":9,"Tables":6},"Predictor":1}`, true},
		// TAGE.Tables 4 is the *effective* default, but the explicit
		// spelling is a different struct (0 vs 4), a different echoed
		// config, and therefore a different key.
		{"tage effective default explicit", `{"Predictor":1}`, `{"Predictor":1,"TAGE":{"Tables":4}}`, false},
		{"tage knob differs", `{"Predictor":1,"TAGE":{"Tables":6}}`, `{"Predictor":1,"TAGE":{"Tables":8}}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ha, hb := hashJSON(t, tc.a), hashJSON(t, tc.b)
			if (ha == hb) != tc.equal {
				t.Errorf("hash(%s) vs hash(%s): equal=%v, want %v", tc.a, tc.b, ha == hb, tc.equal)
			}
			// Hash equality must coincide with struct equality.
			ca, _ := LoadConfigJSON(strings.NewReader(tc.a))
			cb, _ := LoadConfigJSON(strings.NewReader(tc.b))
			if (ca == cb) != tc.equal {
				t.Errorf("struct equality %v disagrees with expected %v — fix the table", ca == cb, tc.equal)
			}
		})
	}

	// Predictor state is always bit-packed, so a config naming another
	// storage backing has no hash: it fails to load.
	t.Run("storage backing differs", func(t *testing.T) {
		var fe *FieldError
		if _, err := LoadConfigJSON(strings.NewReader(`{"Storage":1}`)); !errors.As(err, &fe) || fe.Field != "Storage" {
			t.Fatalf("LoadConfigJSON({\"Storage\":1}) = %v, want a *FieldError on Storage", err)
		}
	})
}

// TestCanonicalHashStability pins the determinism contract: hashing the
// same struct twice, or a copy, yields the same hex digest, and the
// digest has the SHA-256 shape.
func TestCanonicalHashStability(t *testing.T) {
	cfg := DefaultConfig()
	h1, err := cfg.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	cp := cfg
	h2, err := cp.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("copies hash apart: %s vs %s", h1, h2)
	}
	if len(h1) != 64 || strings.Trim(h1, "0123456789abcdef") != "" {
		t.Errorf("hash %q is not lowercase hex sha256", h1)
	}
}

// TestCanonicalHashRejectsInvalid: an unvalidatable config has no cache
// identity — both helpers surface the config's own field error.
func TestCanonicalHashRejectsInvalid(t *testing.T) {
	bad := DefaultConfig()
	bad.NumSTs = 3
	if _, err := bad.CanonicalBytes(); err == nil {
		t.Error("CanonicalBytes accepted an invalid config")
	}
	if _, err := bad.CanonicalHash(); err == nil {
		t.Error("CanonicalHash accepted an invalid config")
	}
}
