package pb

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestRunIdentifiesSignificantFactors(t *testing.T) {
	factors := []Factor{
		{Name: "big", Low: "off", High: "on"},
		{Name: "small", Low: "off", High: "on"},
		{Name: "inert", Low: "off", High: "on"},
	}
	response := func(_ context.Context, levels []Level) (float64, error) {
		return 1000 + 50*float64(levels[0]) + 5*float64(levels[1]), nil
	}
	res, err := RunCtx(context.Background(), factors, response, Options{Foldover: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0] != 1 {
		t.Errorf("rank(big) = %d, want 1", res.Ranks[0])
	}
	if res.Ranks[1] != 2 {
		t.Errorf("rank(small) = %d, want 2", res.Ranks[1])
	}
	if res.Effects[2] != 0 {
		t.Errorf("effect(inert) = %g, want 0", res.Effects[2])
	}
}

func TestRunPadsWithDummies(t *testing.T) {
	factors := []Factor{{Name: "only", Low: "l", High: "h"}}
	res, err := RunCtx(context.Background(), factors, constant(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Factors) != res.Design.Columns {
		t.Fatalf("factors padded to %d, want %d", len(res.Factors), res.Design.Columns)
	}
	if res.Factors[0].Name != "only" {
		t.Errorf("first factor = %q", res.Factors[0].Name)
	}
	if res.Factors[1].Name != "Dummy Factor #1" || res.Factors[2].Name != "Dummy Factor #2" {
		t.Errorf("dummy names: %q, %q", res.Factors[1].Name, res.Factors[2].Name)
	}
}

func TestRunWithDesignRejectsOverflow(t *testing.T) {
	d, _ := NewWithSize(4, false)
	factors := make([]Factor, 5)
	var calls atomic.Int64
	resp := func(context.Context, []Level) (float64, error) {
		calls.Add(1)
		return 0, nil
	}
	if _, err := RunWithDesignCtx(context.Background(), d, factors, resp, Options{}); err == nil {
		t.Error("expected error when factors exceed design columns")
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d rows simulated before the factor-count check", n)
	}
}

func TestEvaluateRowsCoversEveryRowOnce(t *testing.T) {
	d, _ := NewWithSize(12, true)
	var calls int64
	resp := func(_ context.Context, levels []Level) (float64, error) {
		atomic.AddInt64(&calls, 1)
		s := 0.0
		for _, lv := range levels {
			s += float64(lv)
		}
		return s, nil
	}
	for _, par := range []int{0, 1, 3, 64} {
		atomic.StoreInt64(&calls, 0)
		opts := Options{}
		opts.Runner.Parallelism = par
		got, err := EvaluateRowsCtx(context.Background(), d, resp, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if int(atomic.LoadInt64(&calls)) != d.Runs() {
			t.Errorf("parallelism %d: %d calls, want %d", par, calls, d.Runs())
		}
		for i, row := range d.Matrix {
			want := 0.0
			for _, lv := range row {
				want += float64(lv)
			}
			if got[i] != want {
				t.Errorf("parallelism %d row %d: got %g want %g", par, i, got[i], want)
			}
		}
	}
}

func TestRunSuite(t *testing.T) {
	factors := []Factor{
		{Name: "A"}, {Name: "B"}, {Name: "C"},
	}
	// Two "benchmarks" that are sensitive to different factors.
	respA := func(_ context.Context, levels []Level) (float64, error) { return 10 * float64(levels[0]), nil }
	respB := func(_ context.Context, levels []Level) (float64, error) { return 10 * float64(levels[1]), nil }
	suite, err := RunSuiteCtx(context.Background(), factors, []string{"ba", "bb"}, []FallibleResponse{respA, respB}, Options{Foldover: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Results) != 2 || len(suite.RankRows) != 2 {
		t.Fatalf("suite sizes: %d results, %d rank rows", len(suite.Results), len(suite.RankRows))
	}
	if suite.RankRows[0][0] != 1 {
		t.Errorf("benchmark ba should rank factor A first, got %d", suite.RankRows[0][0])
	}
	if suite.RankRows[1][1] != 1 {
		t.Errorf("benchmark bb should rank factor B first, got %d", suite.RankRows[1][1])
	}
	// A and B each scored rank 1 once; both must precede C in the
	// sum-of-ranks order.
	posC := -1
	for i, f := range suite.Order {
		if f == 2 {
			posC = i
		}
	}
	if posC == 0 || posC == 1 {
		t.Errorf("inert factor C ordered at position %d; sums %v", posC, suite.Sums)
	}
}

func TestRunSuiteValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunSuiteCtx(ctx, nil, []string{"x"}, nil, Options{}); err == nil {
		t.Error("mismatched benchmark/response lengths should fail")
	}
	if _, err := RunSuiteCtx(ctx, []Factor{{Name: "A"}}, nil, nil, Options{}); err == nil {
		t.Error("empty suite should fail")
	}
	// The factor-count check runs before any row is simulated.
	d, _ := NewWithSize(4, false)
	var calls atomic.Int64
	resp := func(context.Context, []Level) (float64, error) {
		calls.Add(1)
		return 0, nil
	}
	if _, err := RunSuiteWithDesignCtx(ctx, d, make([]Factor, 5), []string{"x"}, []FallibleResponse{resp}, Options{}); err == nil {
		t.Error("factors exceeding the design's columns should fail")
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d rows simulated before the factor-count check", n)
	}
}

// constant is a response that ignores its levels.
func constant(v float64) FallibleResponse {
	return func(context.Context, []Level) (float64, error) { return v, nil }
}

func TestDummyFactor(t *testing.T) {
	f := Dummy(3)
	if f.Name != "Dummy Factor #3" {
		t.Errorf("Dummy(3).Name = %q", f.Name)
	}
}
