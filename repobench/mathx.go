package main

import (
	"errors"
	"math"
	"sort"

	"pbsim/internal/stats"
)

// averageRanks returns 1-based ranks of xs with tied values sharing
// the mean of the ranks they span, the ranking Spearman's rho needs
// when sums of ranks tie.
func averageRanks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && stats.ApproxEqual(xs[idx[j+1]], xs[idx[i]], 0) {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mean
		}
		i = j + 1
	}
	return ranks
}

// spearman is Spearman's rank correlation of two paired samples: the
// Pearson correlation of their average ranks, so ties are handled
// exactly rather than by the no-ties shortcut formula.
func spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("spearman: samples differ in length")
	}
	if len(a) < 2 {
		return 0, errors.New("spearman: need at least two pairs")
	}
	ra, rb := averageRanks(a), averageRanks(b)
	ma, mb := mean(ra), mean(rb)
	var sab, saa, sbb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if !(saa > 0 && sbb > 0) {
		return 0, errors.New("spearman: a sample is constant")
	}
	return sab / math.Sqrt(saa*sbb), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value of xs (the mean of the middle two
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile estimated from fewer is an anecdote, not a
// statistic, so it is withheld instead.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minBeyond samples must rank
// above it. The median of 20 samples qualifies; the 99th percentile
// needs 1000.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || !(p > 0 && p < 1) {
		return math.NaN(), false
	}
	k := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if k < 1 {
		k = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], n-k >= minBeyond
}

// interval is one sampled estimate with its 95% confidence half-width,
// paired with the reference value it is judged against.
type interval struct {
	estimate, half, reference float64
}

// ciCoverage is the share of intervals that contain their reference
// value; a well-calibrated 95% interval covers about 95% of the time.
func ciCoverage(iv []interval) float64 {
	if len(iv) == 0 {
		return math.NaN()
	}
	hit := 0
	for _, v := range iv {
		if math.Abs(v.estimate-v.reference) <= v.half {
			hit++
		}
	}
	return float64(hit) / float64(len(iv))
}

// ciHalfMeanPct is the mean half-width as a percentage of its
// estimate. Coverage alone can be bought with wide intervals; this is
// the price side of that trade.
func ciHalfMeanPct(iv []interval) float64 {
	if len(iv) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range iv {
		s += 100 * v.half / v.estimate
	}
	return s / float64(len(iv))
}

// relErrMeanPct is the mean of |estimate/reference - 1| in percent.
func relErrMeanPct(iv []interval) float64 {
	if len(iv) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range iv {
		s += 100 * math.Abs(v.estimate/v.reference-1)
	}
	return s / float64(len(iv))
}
