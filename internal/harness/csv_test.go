package harness

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// parseCSV reads back what a CSV writer produced.
func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("reading CSV back: %v", err)
	}
	return recs
}

func TestCSVFig6RoundTrip(t *testing.T) {
	rows := cachedFig6(t)
	var buf bytes.Buffer
	if err := csvFig6(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf)
	if len(recs) != len(rows)+1 {
		t.Fatalf("records = %d, want %d", len(recs), len(rows)+1)
	}
	if recs[0][0] != "history" {
		t.Errorf("header = %v", recs[0])
	}
	// Values survive the float round trip.
	v, err := strconv.ParseFloat(recs[1][1], 64)
	if err != nil || v != rows[0].BlockedInt {
		t.Errorf("int_blocked = %q, want %v", recs[1][1], rows[0].BlockedInt)
	}
}

func TestCSVAllExperiments(t *testing.T) {
	var buf bytes.Buffer

	f7 := cachedFig7(t)
	if err := csvFig7(&buf, f7); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != len(f7)+1 {
		t.Errorf("fig7: %d records", len(recs))
	}

	buf.Reset()
	f8 := cachedFig8(t)
	if err := csvFig8(&buf, f8); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != len(f8)+1 {
		t.Errorf("fig8: %d records", len(recs))
	}

	buf.Reset()
	t5 := cachedTable5(t)
	if err := csvTable5(&buf, t5); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != len(t5)+1 {
		t.Errorf("table5: %d records", len(recs))
	}

	buf.Reset()
	t6 := cachedTable6(t)
	if err := csvTable6(&buf, t6); err != nil {
		t.Fatal(err)
	}
	if recs := parseCSV(t, &buf); len(recs) != len(t6)+1 {
		t.Errorf("table6: %d records", len(recs))
	}

	buf.Reset()
	f9 := cachedFig9(t)
	if err := csvFig9(&buf, f9); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf)
	if len(recs) != len(f9)+1 {
		t.Errorf("fig9: %d records", len(recs))
	}
	// Headers must be identifier-safe (spaces sanitized).
	for _, h := range recs[0] {
		for i := 0; i < len(h); i++ {
			if h[i] == ' ' {
				t.Errorf("header %q contains a space", h)
			}
		}
	}
}
