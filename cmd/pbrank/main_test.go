package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
)

// The -v recorder prints exactly two line formats, one per retry and
// one per row restored from the checkpoint, and nothing for a
// simulated row.
func TestVerboseRecorderLines(t *testing.T) {
	var buf bytes.Buffer
	rec := verboseRecorder{w: &buf}
	rec.RowRetried("base/gzip", 3, 1, 150*time.Millisecond, errors.New("transient"))
	rec.RowFinished("base/gzip", 4, 1234, 0, 0, true)
	rec.RowFinished("base/gzip", 5, 1234, time.Millisecond, 1, false)
	want := "pbrank: retrying base/gzip row 3 (attempt 1, in 150ms): transient\n" +
		"pbrank: base/gzip row 4 restored from checkpoint\n"
	if got := buf.String(); got != want {
		t.Errorf("verbose output:\n%s\nwant:\n%s", got, want)
	}
}

// Joined to another recorder through obs.Multi, the -v recorder sees
// the runner's events: a restored row, a retried row, and a simulated
// row yield one restore line and one retry line.
func TestVerboseRecorderThroughRunner(t *testing.T) {
	cp, err := runner.OpenCheckpoint(filepath.Join(t.TempDir(), "cp.jsonl"), "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if err := cp.Record("base/gzip", 0, 42); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	failed := false
	task := func(ctx context.Context, row int) (float64, error) {
		if row == 1 && !failed {
			failed = true
			return 0, errors.New("transient")
		}
		return float64(row), ctx.Err()
	}
	metrics := obs.NewMetrics()
	_, err = runner.Evaluate(context.Background(), 3, task, runner.Config{
		Parallelism: 1,
		Retries:     1,
		Backoff:     time.Microsecond,
		Checkpoint:  cp,
		Scope:       "base/gzip",
		Recorder:    obs.Multi(metrics, verboseRecorder{w: &buf}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`^pbrank: base/gzip row 0 restored from checkpoint\n` +
		`pbrank: retrying base/gzip row 1 \(attempt 1, in [0-9.]+[µn]?s\): transient\n$`)
	if got := buf.String(); !want.MatchString(got) {
		t.Errorf("verbose output:\n%s", got)
	}
	if s := metrics.Summary("pbrank"); s.RowsResumed != 1 || s.RowsSimulated != 2 {
		t.Errorf("metrics saw %d resumed / %d simulated rows, want 1 / 2", s.RowsResumed, s.RowsSimulated)
	}
}
