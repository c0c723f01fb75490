package pb

import (
	"math"
	"sort"

	"pbsim/internal/stats"
)

// Ranks converts effect values into significance ranks: the factor
// with the largest absolute effect gets rank 1. Ties are broken by
// column index so that ranks are a permutation of 1..len(effects),
// matching the paper's tables where every rank appears exactly once
// per benchmark column.
func Ranks(effects []float64) []int {
	idx := make([]int, len(effects))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := math.Abs(effects[idx[a]]), math.Abs(effects[idx[b]])
		if !stats.ApproxEqual(ea, eb, 0) {
			return ea > eb
		}
		return idx[a] < idx[b]
	})
	ranks := make([]int, len(effects))
	for r, col := range idx {
		ranks[col] = r + 1
	}
	return ranks
}

// SumOfRanks sums each factor's rank across benchmarks. rankRows is
// indexed [benchmark][factor]; the result is indexed [factor]. Lower
// sums identify the factors that matter most across the whole
// benchmark suite (the paper's Table 9 "Sum" column).
func SumOfRanks(rankRows [][]int) []int {
	if len(rankRows) == 0 {
		return nil
	}
	sums := make([]int, len(rankRows[0]))
	for _, row := range rankRows {
		for j, r := range row {
			sums[j] += r
		}
	}
	return sums
}

// OrderBySum returns factor indices sorted by ascending sum-of-ranks,
// ties broken by factor index: the presentation order of Table 9.
func OrderBySum(sums []int) []int {
	order := make([]int, len(sums))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if sums[order[a]] != sums[order[b]] {
			return sums[order[a]] < sums[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// SignificanceGap scans the sum-of-ranks in ascending order and
// returns the position (1-based count of leading factors) before the
// largest relative jump, the heuristic the paper uses to conclude that
// "only the first ten parameters are significant". The gap is searched
// in the first half of the list only, since trailing sums are noise.
func SignificanceGap(sums []int) int {
	order := OrderBySum(sums)
	if len(order) < 3 {
		return len(order)
	}
	bestPos, bestJump := 1, 0
	limit := len(order) / 2
	for i := 1; i <= limit; i++ {
		jump := sums[order[i]] - sums[order[i-1]]
		if jump > bestJump {
			bestJump = jump
			bestPos = i
		}
	}
	return bestPos
}
