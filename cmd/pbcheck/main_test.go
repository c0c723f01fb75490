package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/analysis/rules"
)

// TestList pins -list to the suite: one line per analyzer of
// rules.All, in suite order, and nothing else.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	var want strings.Builder
	for _, a := range rules.All() {
		fmt.Fprintf(&want, "%-12s %s\n", a.Name, a.Doc)
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("-list output:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestRemovedFlagIsUsageError keeps a flag that no longer exists a
// usage error (exit 2) rather than a silently ignored argument.
func TestRemovedFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "determinism", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("-rules exited %d, want 2 (stderr: %s)", code, stderr.String())
	}
}

// TestSeededViolationFails runs the CLI over a package holding one
// deliberate errdiscard violation: exit 1, and the finding is printed
// at its position.
func TestSeededViolationFails(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "seeded"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	want := "cmd/pbcheck/testdata/seeded/seeded.go:9:2: errdiscard: error returned by os.Remove is discarded (bare call)"
	if got := stdout.String(); !strings.HasPrefix(got, want) || strings.Count(got, "\n") != 1 {
		t.Errorf("output:\n%s\nwant one line starting %q", got, want)
	}
}
