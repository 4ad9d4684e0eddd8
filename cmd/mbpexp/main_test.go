package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
	for _, ex := range experiments {
		if ex.name == "" {
			t.Fatal("registry entry with empty name")
		}
		if seen[ex.name] {
			t.Fatalf("duplicate experiment %q", ex.name)
		}
		seen[ex.name] = true
		if ex.prepare == nil {
			t.Fatalf("experiment %q has no prepare", ex.name)
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
	all := experimentNames(true)
	joined := " " + strings.Join(all, " ") + " "
	for _, excluded := range []string{"report"} {
		if strings.Contains(joined, " "+excluded+" ") {
			t.Errorf("`all` includes standalone-only experiment %q", excluded)
		}
	}
	if !strings.Contains(joined, " predictors ") {
		t.Error("`all` misses the predictors experiment")
	}
	full := experimentNames(false)
	if len(full) <= len(all) {
		t.Errorf("full list (%d) should exceed `all` list (%d)", len(full), len(all))
	}
}

// The retired benchmark verbs and the storage lever are gone: the
// command must reject them, not quietly fall back to a default. bench/
// is the benchmark; the reference backing is a test oracle.
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
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "MBPEXP_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("mbpexp %s: err %v, want exit status 2", strings.Join(c.args, " "), err)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("mbpexp %s: output lacks %q:\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
