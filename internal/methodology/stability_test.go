package methodology

import (
	"testing"

	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
)

// paperSuite wraps the published Table 9 ranks in a pb.Suite so the
// stability machinery can run on the paper's own data.
func paperSuite() *pb.Suite {
	rows := make([][]int, len(paperdata.Benchmarks))
	vecs := paperdata.RankVectors(paperdata.Table9)
	copy(rows, vecs)
	factors := make([]pb.Factor, len(paperdata.Table9))
	for i, r := range paperdata.Table9 {
		factors[i] = pb.Factor{Name: r.Parameter}
	}
	// Rank rows are indexed [benchmark][tableRow]; the suite's factor
	// list uses the same row order.
	sums := pb.SumOfRanks(rows)
	return &pb.Suite{
		Benchmarks: paperdata.Benchmarks,
		Factors:    factors,
		RankRows:   rows,
		Sums:       sums,
		Order:      pb.OrderBySum(sums),
	}
}

func TestJackknifeOnPaperData(t *testing.T) {
	rep, err := Jackknife(paperSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Factors) != 43 {
		t.Fatalf("%d factors", len(rep.Factors))
	}
	byPos := rep.ByFullPosition()
	// The full-suite ordering starts with the ROB (paper Table 9).
	if byPos[0].Factor.Name != "Reorder Buffer Entries" {
		t.Errorf("top factor = %q", byPos[0].Factor.Name)
	}
	// Every jackknife envelope must contain the full position.
	for _, fs := range rep.Factors {
		if fs.MinPosition > fs.FullPosition || fs.MaxPosition < fs.FullPosition {
			t.Errorf("%s: envelope [%d,%d] excludes full position %d",
				fs.Factor.Name, fs.MinPosition, fs.MaxPosition, fs.FullPosition)
		}
		if fs.Spread != fs.MaxPosition-fs.MinPosition {
			t.Errorf("%s: spread inconsistent", fs.Factor.Name)
		}
	}
	// The paper's conclusion that the top two parameters (ROB, L2
	// latency) are significant "across all benchmarks" implies their
	// positions cannot hinge on any single benchmark.
	for _, fs := range byPos[:2] {
		if fs.Spread > 1 {
			t.Errorf("%s: top-2 position unstable (spread %d)", fs.Factor.Name, fs.Spread)
		}
	}
}

func TestJackknifeValidation(t *testing.T) {
	s := paperSuite()
	s.RankRows = s.RankRows[:1]
	if _, err := Jackknife(s); err == nil {
		t.Error("single-benchmark suite accepted")
	}
}

// tinySuite builds a suite directly from rank rows (indexed
// [benchmark][factor]) for edge-case testing.
func tinySuite(rows [][]int) *pb.Suite {
	nf := 0
	if len(rows) > 0 {
		nf = len(rows[0])
	}
	factors := make([]pb.Factor, nf)
	for i := range factors {
		factors[i] = pb.Factor{Name: string(rune('A' + i))}
	}
	sums := pb.SumOfRanks(rows)
	benchmarks := make([]string, len(rows))
	for b := range benchmarks {
		benchmarks[b] = string(rune('x' + b))
	}
	return &pb.Suite{
		Benchmarks: benchmarks,
		Factors:    factors,
		RankRows:   rows,
		Sums:       sums,
		Order:      pb.OrderBySum(sums),
	}
}

// An empty suite (no benchmarks at all) must be rejected like the
// single-benchmark one, not crash in the resampling loop.
func TestJackknifeEmptySuite(t *testing.T) {
	if _, err := Jackknife(tinySuite(nil)); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := Jackknife(tinySuite([][]int{})); err == nil {
		t.Error("zero-benchmark suite accepted")
	}
}

// A single factor cannot move: every leave-one-out ordering is the
// trivial one, so the envelope is degenerate and trivially stable.
func TestJackknifeSingleFactor(t *testing.T) {
	rep, err := Jackknife(tinySuite([][]int{{1}, {1}, {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Factors) != 1 {
		t.Fatalf("%d factors", len(rep.Factors))
	}
	fs := rep.Factors[0]
	if fs.FullPosition != 1 || fs.MinPosition != 1 || fs.MaxPosition != 1 || fs.Spread != 0 {
		t.Errorf("degenerate envelope expected, got %+v", fs)
	}
	if got := rep.ByFullPosition(); len(got) != 1 || got[0].FullPosition != 1 {
		t.Errorf("ByFullPosition = %+v", got)
	}
}

// All-ties rank sums: two benchmarks that rank the factors in exactly
// opposite orders. The full-suite sums all tie (broken by factor
// index), and each leave-one-out collapses to one benchmark's
// ordering, so the outer factors' envelopes span the whole table
// while the middle factor never moves.
func TestJackknifeAllTiesRankSums(t *testing.T) {
	suite := tinySuite([][]int{{1, 2, 3}, {3, 2, 1}})
	for _, s := range suite.Sums[1:] {
		if s != suite.Sums[0] {
			t.Fatalf("sums %v not all tied", suite.Sums)
		}
	}
	rep, err := Jackknife(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []FactorStability{
		{FullPosition: 1, MinPosition: 1, MaxPosition: 3, Spread: 2},
		{FullPosition: 2, MinPosition: 2, MaxPosition: 2, Spread: 0},
		{FullPosition: 3, MinPosition: 1, MaxPosition: 3, Spread: 2},
	} {
		got := rep.Factors[i]
		got.Factor = pb.Factor{}
		if got != want {
			t.Errorf("factor %d: %+v, want %+v", i, got, want)
		}
	}
	// ByFullPosition must order 1, 2, 3 regardless of factor index.
	for i, fs := range rep.ByFullPosition() {
		if fs.FullPosition != i+1 {
			t.Errorf("ByFullPosition[%d].FullPosition = %d", i, fs.FullPosition)
		}
	}
}
