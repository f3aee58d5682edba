package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestUnknownExperimentListsTheIDs: an -only that names no experiment is a
// usage error, and the message lists the nine ids there are.
func TestUnknownExperimentListsTheIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("-only bogus exited %d, want 2", code)
	}
	const ids = "table1, fig12, fig13, fig14, fig15, parallel, metric, estimation, deep"
	if want := `unknown experiment "bogus" (have ` + ids + ")\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("a usage error printed to stdout: %q", stdout.String())
	}
}

// TestRetiredOutputFlagsAreUsageErrors: Markdown is the only output, so the
// flags that chose another are gone and refused like any unknown flag.
func TestRetiredOutputFlagsAreUsageErrors(t *testing.T) {
	for _, flag := range []string{"-markdown", "-chart"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag, "-only", "table1"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s exited %d, want 2", flag, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s printed to stdout: %q", flag, stdout.String())
		}
	}
}

// TestOnlyPrintsItsSectionOfTheBlock: -only table1 prints exactly Table 1's
// section of EXPERIMENTS.md's generated block — all of it, up to the next
// section's heading.
func TestOnlyPrintsItsSectionOfTheBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-only table1 exited %d: %s", code, stderr.String())
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	i := strings.Index(string(doc), out)
	if !strings.HasPrefix(out, "### table1 — ") || i < 0 {
		t.Fatalf("-only table1 printed what EXPERIMENTS.md does not hold:\n%s", out)
	}
	if next := string(doc[i+len(out):]); !strings.HasPrefix(next, "### fig12 — ") {
		t.Errorf("-only table1 printed part of its section: EXPERIMENTS.md goes on with %.80q", next)
	}
}
