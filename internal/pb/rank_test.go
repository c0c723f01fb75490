package pb

import (
	"testing"
)

func TestRanksBasic(t *testing.T) {
	effects := []float64{-23, -67, -137, 129, -105, -225, 73}
	ranks := Ranks(effects)
	// Magnitudes 225 > 137 > 129 > 105 > 73 > 67 > 23.
	want := []int{7, 6, 2, 3, 4, 1, 5}
	for j := range want {
		if ranks[j] != want[j] {
			t.Errorf("rank[%d] = %d, want %d", j, ranks[j], want[j])
		}
	}
}

func TestRanksUseMagnitudeOnly(t *testing.T) {
	// "Only the magnitude of the effect is important; the sign of the
	// effect is meaningless."
	a := Ranks([]float64{-10, 5, -1})
	b := Ranks([]float64{10, -5, 1})
	for j := range a {
		if a[j] != b[j] {
			t.Errorf("sign changed rank[%d]: %d vs %d", j, a[j], b[j])
		}
	}
}

func TestRanksTiesAreStable(t *testing.T) {
	ranks := Ranks([]float64{3, -3, 3})
	want := []int{1, 2, 3}
	for j := range want {
		if ranks[j] != want[j] {
			t.Errorf("tie rank[%d] = %d, want %d", j, ranks[j], want[j])
		}
	}
}

func TestRanksIsPermutation(t *testing.T) {
	effects := []float64{0, 2, -2, 7, 7, -9, 0.5, 0}
	ranks := Ranks(effects)
	seen := make(map[int]bool)
	for _, r := range ranks {
		if r < 1 || r > len(effects) {
			t.Fatalf("rank %d out of range", r)
		}
		if seen[r] {
			t.Fatalf("rank %d assigned twice", r)
		}
		seen[r] = true
	}
}

func TestSumOfRanks(t *testing.T) {
	rows := [][]int{
		{1, 2, 3},
		{3, 1, 2},
		{2, 3, 1},
	}
	sums := SumOfRanks(rows)
	for j, s := range sums {
		if s != 6 {
			t.Errorf("sum[%d] = %d, want 6", j, s)
		}
	}
	if SumOfRanks(nil) != nil {
		t.Error("SumOfRanks(nil) should be nil")
	}
}

func TestOrderBySum(t *testing.T) {
	sums := []int{36, 52, 100, 118, 36}
	order := OrderBySum(sums)
	want := []int{0, 4, 1, 2, 3} // ties broken by index
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestSignificanceGap(t *testing.T) {
	// Ten small sums followed by a jump, mimicking Table 9 where the
	// gap between the 10th (164) and 11th (237) sum marks the cutoff.
	sums := []int{36, 52, 100, 118, 130, 133, 138, 153, 160, 164, 237, 246, 253, 260, 266, 268, 284, 287, 296, 301, 306, 309}
	if got := SignificanceGap(sums); got != 10 {
		t.Errorf("SignificanceGap = %d, want 10", got)
	}
	if got := SignificanceGap([]int{1, 2}); got != 2 {
		t.Errorf("SignificanceGap(short) = %d, want 2", got)
	}
}
