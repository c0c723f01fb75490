package pb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbsim/internal/runner"
)

// suiteFixture is a deterministic 3-benchmark suite whose responses
// exercise non-trivial float64 bit patterns.
func suiteFixture() ([]Factor, []string, []FallibleResponse) {
	factors := []Factor{
		{Name: "A"}, {Name: "B"}, {Name: "C"}, {Name: "D"}, {Name: "E"},
	}
	benchmarks := []string{"alpha", "beta", "gamma"}
	responses := make([]FallibleResponse, len(benchmarks))
	for bi := range benchmarks {
		weight := float64(bi + 1)
		responses[bi] = func(_ context.Context, levels []Level) (float64, error) {
			y := 1000.0
			for j, lv := range levels {
				y += weight * math.Sin(float64(j+1)) * float64(lv) * math.Sqrt(float64(j)+1.5)
			}
			return y, nil
		}
	}
	return factors, benchmarks, responses
}

// An interrupted checkpointed suite, resumed with the same options,
// must reproduce bit-identical responses, effects, and Table-9 rank
// sums compared to an uninterrupted run.
func TestSuiteCheckpointResumeBitIdentical(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	opts := Options{Foldover: true}
	opts.Runner.Parallelism = 2

	// Reference: uninterrupted, no checkpoint.
	want, err := RunSuiteCtx(context.Background(), factors, benchmarks, responses, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the response budget dies after 20 evaluations,
	// mid-suite, and there are no retries to save it.
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	cp, err := runner.OpenCheckpoint(path, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var budget atomic.Int64
	budget.Store(20)
	limited := make([]FallibleResponse, len(responses))
	for i, resp := range responses {
		limited[i] = func(ctx context.Context, levels []Level) (float64, error) {
			if budget.Add(-1) < 0 {
				return 0, errors.New("simulated crash: budget exhausted")
			}
			return resp(ctx, levels)
		}
	}
	iopts := opts
	iopts.Runner.Checkpoint = cp
	_, err = RunSuiteCtx(context.Background(), factors, benchmarks, limited, iopts)
	if err == nil {
		t.Fatal("interrupted run unexpectedly succeeded")
	}
	var runErr *runner.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want aggregate *runner.RunError, got %v", err)
	}
	cp.Close()

	// Resume: same options, fresh checkpoint handle on the same file.
	re, err := runner.OpenCheckpoint(path, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Loaded() == 0 {
		t.Fatal("interrupted run checkpointed nothing")
	}
	var fresh atomic.Int64
	counting := make([]FallibleResponse, len(responses))
	for i, resp := range responses {
		counting[i] = func(ctx context.Context, levels []Level) (float64, error) {
			fresh.Add(1)
			return resp(ctx, levels)
		}
	}
	ropts := opts
	ropts.Runner.Checkpoint = re
	got, err := RunSuiteCtx(context.Background(), factors, benchmarks, counting, ropts)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	totalRows := want.Design.Runs() * len(benchmarks)
	if evaluated := int(fresh.Load()); evaluated >= totalRows {
		t.Errorf("resume re-evaluated all %d rows; checkpoint ignored", evaluated)
	} else if evaluated+re.Loaded() != totalRows {
		t.Errorf("resume evaluated %d rows with %d checkpointed, want %d total", evaluated, re.Loaded(), totalRows)
	}

	for bi := range benchmarks {
		for i := range want.Results[bi].Responses {
			w, g := want.Results[bi].Responses[i], got.Results[bi].Responses[i]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s row %d: response %v != %v (not bit-identical)", benchmarks[bi], i, g, w)
			}
		}
		for j := range want.Results[bi].Effects {
			w, g := want.Results[bi].Effects[j], got.Results[bi].Effects[j]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s effect %d: %v != %v", benchmarks[bi], j, g, w)
			}
		}
	}
	for j := range want.Sums {
		if want.Sums[j] != got.Sums[j] {
			t.Fatalf("rank sum %d: %d != %d", j, got.Sums[j], want.Sums[j])
		}
	}
	for j := range want.Order {
		if want.Order[j] != got.Order[j] {
			t.Fatalf("Table-9 order position %d: %d != %d", j, got.Order[j], want.Order[j])
		}
	}
}

// A suite with injected faults (seeded transient failures, one panic,
// one slow row exceeding the per-row timeout) completes via retries
// and matches the fault-free result exactly.
func TestSuiteCompletesDespiteInjectedFaults(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	clean, err := RunSuiteCtx(context.Background(), factors, benchmarks, responses, Options{Foldover: true})
	if err != nil {
		t.Fatal(err)
	}
	faults := &runner.Faults{
		Seed:      3,
		FailProb:  0.15,
		PanicRows: map[int]int{4: 1},
		SlowRows:  map[int]time.Duration{6: 150 * time.Millisecond},
	}
	opts := Options{Foldover: true}
	opts.Runner = runner.Config{
		Retries:    6,
		Timeout:    50 * time.Millisecond,
		Backoff:    time.Millisecond,
		BackoffCap: 2 * time.Millisecond,
		Wrap:       faults.Wrap,
	}
	got, err := RunSuiteCtx(context.Background(), factors, benchmarks, responses, opts)
	if err != nil {
		t.Fatalf("faulted suite failed: %v", err)
	}
	for bi := range benchmarks {
		for i := range clean.Results[bi].Responses {
			w, g := clean.Results[bi].Responses[i], got.Results[bi].Responses[i]
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("benchmark %s row %d: %v != %v", benchmarks[bi], i, g, w)
			}
		}
	}
	for j := range clean.Sums {
		if clean.Sums[j] != got.Sums[j] {
			t.Fatalf("rank sum %d differs under faults: %d != %d", j, got.Sums[j], clean.Sums[j])
		}
	}
}

// Cancelling a suite mid-run surfaces the context error, wrapped with
// the failing benchmark's name.
func TestSuiteCancellation(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	gated := make([]FallibleResponse, len(responses))
	for i, resp := range responses {
		gated[i] = func(ctx context.Context, levels []Level) (float64, error) {
			if calls.Add(1) == 5 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return resp(ctx, levels)
		}
	}
	opts := Options{Foldover: true}
	opts.Runner.Parallelism = 2
	_, err := RunSuiteCtx(ctx, factors, benchmarks, gated, opts)
	if err == nil {
		t.Fatal("cancelled suite succeeded")
	}
	if !runner.Cancelled(err) {
		t.Fatalf("error %v is not a cancellation", err)
	}
}

// The degradation policy: a benchmark whose rows are exhausted fails
// with an aggregate error, and no NaN ever reaches the effects.
func TestSuiteNeverSilentNaN(t *testing.T) {
	factors, benchmarks, responses := suiteFixture()
	broken := make([]FallibleResponse, len(responses))
	for i, resp := range responses {
		bi := i
		broken[bi] = func(ctx context.Context, levels []Level) (float64, error) {
			if bi == 1 && levels[0] == High {
				return 0, fmt.Errorf("benchmark %d cannot simulate this row", bi)
			}
			return resp(ctx, levels)
		}
	}
	opts := Options{Foldover: true}
	opts.Runner.Retries = 1
	opts.Runner.Backoff = time.Microsecond
	_, err := RunSuiteCtx(context.Background(), factors, benchmarks, broken, opts)
	if err == nil {
		t.Fatal("broken suite succeeded")
	}
	var runErr *runner.RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("want *runner.RunError, got %v", err)
	}
	if !strings.Contains(err.Error(), "benchmark beta") {
		t.Errorf("error %q does not name the failing benchmark", err)
	}
}

// A panicking response surfaces as an error naming its cause: the
// runner recovers the panic and routes it through the same error path
// as every other failure.
func TestPanickingResponseSurfacesAsError(t *testing.T) {
	d, _ := NewWithSize(4, false)
	boom := func(context.Context, []Level) (float64, error) { panic("boom") }
	opts := Options{}
	opts.Runner.Parallelism = 1
	if _, err := EvaluateRowsCtx(context.Background(), d, boom, opts); err == nil {
		t.Error("EvaluateRowsCtx swallowed the response panic")
	} else if !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic cause lost from error: %v", err)
	}
}
