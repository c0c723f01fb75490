package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSpearmanPerfectAndReversed(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if r, err := spearman(a, []float64{10, 20, 30, 40, 50}); err != nil || !near(r, 1) {
		t.Fatalf("monotone: rho=%v err=%v, want 1", r, err)
	}
	if r, err := spearman(a, []float64{5, 4, 3, 2, 1}); err != nil || !near(r, -1) {
		t.Fatalf("reversed: rho=%v err=%v, want -1", r, err)
	}
}

func TestSpearmanTiesUseAverageRanks(t *testing.T) {
	// Ranks of b are 1, 2.5, 2.5, 4; Pearson on ranks against
	// 1..4 is 0.9486832980505138 (= 3/sqrt(10)).
	r, err := spearman([]float64{1, 2, 3, 4}, []float64{7, 9, 9, 12})
	if err != nil || !near(r, 3/math.Sqrt(10)) {
		t.Fatalf("rho=%v err=%v, want %v", r, err, 3/math.Sqrt(10))
	}
	// The no-ties shortcut 1-6*sum(d^2)/(n(n^2-1)) would give 0.95.
	got := averageRanks([]float64{7, 9, 9, 12})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("averageRanks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanRejectsDegenerateInput(t *testing.T) {
	if _, err := spearman([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := spearman([]float64{1, 2, 3}, []float64{4, 4, 4}); err == nil {
		t.Fatal("constant sample accepted")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, reportable (10 beyond)", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond and must be withheld")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, reportable", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond and must be withheld")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("empty sample reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}

func TestCICoverageAndHalfWidth(t *testing.T) {
	iv := []interval{
		{estimate: 1.0, half: 0.1, reference: 1.05},  // covered
		{estimate: 2.0, half: 0.25, reference: 2.25}, // on the edge: covered
		{estimate: 1.0, half: 0.1, reference: 1.2},   // missed
		{estimate: 4.0, half: 0.0, reference: 4.0},   // exact census
	}
	if c := ciCoverage(iv); !near(c, 0.75) {
		t.Fatalf("coverage = %v, want 0.75", c)
	}
	// Half-widths as % of estimate: 10, 12.5, 10, 0 -> mean 8.125.
	if h := ciHalfMeanPct(iv); !near(h, 8.125) {
		t.Fatalf("half-width = %v, want 8.125", h)
	}
	// |est/ref-1| in %: 4.76.., 11.1.., 16.6.., 0.
	want := 100 * ((1 - 1/1.05) + (1 - 2/2.25) + (1 - 1/1.2)) / 4
	if e := relErrMeanPct(iv); !near(e, want) {
		t.Fatalf("relative error = %v, want %v", e, want)
	}
	if !math.IsNaN(ciCoverage(nil)) {
		t.Fatal("coverage of nothing must be NaN, not a number that looks measured")
	}
}
