package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mbbp/internal/harness"
)

// TestMain lets a test re-run the binary as the real command: with
// MBPEXP_RUN_MAIN=1 the test binary is mbpexp itself.
func TestMain(m *testing.M) {
	if os.Getenv("MBPEXP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The registry is the single source for usage, the `all` sequence and
// dispatch; these pin its invariants.
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, ex := range registry {
		if ex.String() == "" {
			t.Fatal("registry entry with empty name")
		}
		if seen[ex.String()] {
			t.Fatalf("duplicate experiment %q", ex)
		}
		seen[ex.String()] = true
		if !ex.Has(harness.FormText) {
			t.Fatalf("experiment %q has no text form", ex)
		}
	}
	for _, name := range []string{"fig6", "compare", "predictors", "report"} {
		if _, ok := findExperiment(name); !ok {
			t.Errorf("findExperiment(%q) missing", name)
		}
	}
	if _, ok := findExperiment("nonsense"); ok {
		t.Error("findExperiment accepted an unknown name")
	}
}

// The `all` sequence excludes the standalone-only entries and keeps
// registry order.
func TestAllSequence(t *testing.T) {
	all := names(harness.Experiments, harness.FormText)
	joined := " " + all + " "
	for _, excluded := range []string{"report"} {
		if strings.Contains(joined, " "+excluded+" ") {
			t.Errorf("`all` includes standalone-only experiment %q", excluded)
		}
	}
	if !strings.Contains(joined, " predictors ") {
		t.Error("`all` misses the predictors experiment")
	}
	full := names(registry, harness.FormText)
	if !strings.HasPrefix(full, all+" ") {
		t.Errorf("registry %q does not start with the `all` sequence %q", full, all)
	}
}

// runMain re-runs the test binary as mbpexp with args and returns its
// combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MBPEXP_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("mbpexp %s: %v", strings.Join(args, " "), err)
	}
	return string(out), 0
}

// The retired benchmark verbs and the storage and predictor levers are
// gone: the command must reject them, not quietly fall back to a
// default. bench/ is the benchmark; the reference backing is a test
// oracle; the predictor comparison is the predictors experiment.
func TestRetiredVerbsAndFlagsRejected(t *testing.T) {
	for _, name := range []string{"bench", "benchcheck"} {
		if _, ok := findExperiment(name); ok {
			t.Errorf("findExperiment(%q) still resolves", name)
		}
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"bench"}, `unknown experiment "bench"`},
		{[]string{"benchcheck"}, `unknown experiment "benchcheck"`},
		{[]string{"-storage", "reference", "fig6"}, "flag provided but not defined: -storage"},
		{[]string{"-predictor", "tage", "compare"}, "flag provided but not defined: -predictor"},
	}
	for _, c := range cases {
		out, code := runMain(t, c.args...)
		if code != 2 {
			t.Errorf("mbpexp %s: exit status %d, want 2", strings.Join(c.args, " "), code)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("mbpexp %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}

// -csv on a target without a CSV form is an error, not a silent table:
// the command exits 2 before tracing and names the experiments that
// have one. The -csv help is generated from the same descriptors.
func TestCSVRequiresCSVForm(t *testing.T) {
	withCSV := names(registry, harness.FormCSV)
	for _, want := range []string{"fig6", "table5", "predictors", "events", "h2p"} {
		if !strings.Contains(" "+withCSV+" ", " "+want+" ") {
			t.Errorf("CSV list %q misses %s", withCSV, want)
		}
	}
	for _, args := range [][]string{{"-csv", "extblocks"}, {"-csv", "cost"}, {"-csv", "all"}} {
		out, code := runMain(t, args...)
		if code != 2 {
			t.Errorf("mbpexp %s: exit status %d, want 2", strings.Join(args, " "), code)
		}
		if !strings.Contains(out, "experiments with one: "+withCSV) {
			t.Errorf("mbpexp %s: output does not list the CSV experiments:\n%s", strings.Join(args, " "), out)
		}
		if strings.Contains(out, "tracing") {
			t.Errorf("mbpexp %s: traced before rejecting -csv:\n%s", strings.Join(args, " "), out)
		}
	}
	if out, _ := runMain(t, "-h"); !strings.Contains(out, "emit CSV instead of tables ("+withCSV+")") {
		t.Errorf("mbpexp -h: -csv help does not list %q:\n%s", withCSV, out)
	}
}
