package pb

import (
	"context"
	"math"
	"testing"
)

// TestSuiteFromResponsesMatchesRunSuite pins the distributed-analysis
// contract: assembling a Suite from precomputed response vectors must
// yield bit-identical effects, ranks, and ordering to evaluating the
// same response function in-process.
func TestSuiteFromResponsesMatchesRunSuite(t *testing.T) {
	factors := make([]Factor, 7)
	for i := range factors {
		factors[i] = Factor{Name: string(rune('A' + i)), Low: "lo", High: "hi"}
	}
	weights := [][]float64{
		{9, 1, 4, 0.5, 2, 7, 0.25},
		{1, 8, 0.5, 3, 6, 0.125, 2},
	}
	benchmarks := []string{"b0", "b1"}
	responses := make([]FallibleResponse, len(benchmarks))
	for bi := range benchmarks {
		w := weights[bi]
		responses[bi] = func(_ context.Context, levels []Level) (float64, error) {
			v := 100.0
			for i, lv := range levels {
				if i < len(w) && lv == High {
					v += w[i]
				}
			}
			return v / 3.0, nil // not exactly representable: bit-identity is meaningful
		}
	}
	want, err := RunSuiteCtx(context.Background(), factors, benchmarks, responses, Options{Foldover: true})
	if err != nil {
		t.Fatal(err)
	}

	vecs := make([][]float64, len(benchmarks))
	for bi, res := range want.Results {
		vecs[bi] = res.Responses
	}
	got, err := SuiteFromResponses(want.Design, factors, benchmarks, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range benchmarks {
		for fi := range got.Results[bi].Effects {
			g, w := got.Results[bi].Effects[fi], want.Results[bi].Effects[fi]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("benchmark %d effect %d: %x != %x", bi, fi, math.Float64bits(g), math.Float64bits(w))
			}
		}
		for fi := range got.RankRows[bi] {
			if got.RankRows[bi][fi] != want.RankRows[bi][fi] {
				t.Fatalf("benchmark %d rank %d: %d != %d", bi, fi, got.RankRows[bi][fi], want.RankRows[bi][fi])
			}
		}
	}
	for fi := range got.Sums {
		if got.Sums[fi] != want.Sums[fi] || got.Order[fi] != want.Order[fi] {
			t.Fatalf("sum/order diverged at %d: %d/%d vs %d/%d",
				fi, got.Sums[fi], got.Order[fi], want.Sums[fi], want.Order[fi])
		}
	}
	if len(got.Factors) != got.Design.Columns {
		t.Fatalf("factors not padded: %d of %d", len(got.Factors), got.Design.Columns)
	}
}

func TestSuiteFromResponsesValidates(t *testing.T) {
	d, err := New(7, false)
	if err != nil {
		t.Fatal(err)
	}
	factors := []Factor{{Name: "A"}}
	if _, err := SuiteFromResponses(d, factors, []string{"b"}, nil); err == nil {
		t.Fatal("mismatched benchmark/vector counts accepted")
	}
	if _, err := SuiteFromResponses(d, factors, nil, nil); err == nil {
		t.Fatal("empty suite accepted")
	}
	if _, err := SuiteFromResponses(d, factors, []string{"b"}, [][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("short response vector accepted")
	}
}
