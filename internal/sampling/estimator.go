package sampling

import (
	"fmt"
	"math"
	"sort"

	"pbsim/internal/trace"
)

// z95 is the two-sided 95% normal quantile used for all confidence
// intervals in this package. The normal approximation does not hold
// here: a row draws only 2–4 regions, and the "95%" intervals of the
// pb-sampled workload cover about 74% of the time. A Student-t
// quantile alone is not the fix; ROADMAP item 3 tracks a coverage
// gate and the estimator work.
const z95 = 1.96

// Plan is one estimator's selection decision for one stream: which
// regions to detail-simulate, and how to fold their measured CPIs into
// the whole-program estimate. Plans are immutable once built and safe
// to share across concurrently simulated design rows.
type Plan interface {
	// Regions lists the distinct region indices to detail-simulate, in
	// ascending order.
	Regions() []int
	// Estimate combines the measured per-region CPIs (one entry per
	// region in Regions) into the whole-program CPI estimate and the
	// half-width of its 95% confidence interval.
	Estimate(cpi map[int]float64) (mean, half float64, err error)
}

// Estimator builds sampling plans. Implementations are stateless;
// all per-run state lives in the Plan.
type Estimator interface {
	// Name returns the spec name the estimator registers under.
	Name() string
	// NeedsProxy reports whether Plan requires per-region proxy scores
	// from the functional pre-pass.
	NeedsProxy() bool
	// Plan selects regions given the population size, the detailed
	// budget (1 <= budget < numRegions; a census never reaches Plan),
	// the normalized spec, proxy scores (nil unless NeedsProxy), and
	// the seeded selection stream.
	Plan(numRegions, budget int, spec Spec, proxy []float64, rng *trace.RNG) (Plan, error)
}

// estimators is the registry in canonical reporting order.
var estimators = []Estimator{uniformEstimator{}, stratifiedEstimator{}, rankedSetEstimator{}}

// Names lists the registered estimators in canonical order.
func Names() []string {
	names := make([]string, len(estimators))
	for i, e := range estimators {
		names[i] = e.Name()
	}
	return names
}

// ByName resolves an estimator by its spec name.
func ByName(name string) (Estimator, error) {
	for _, e := range estimators {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("sampling: unknown estimator %q (have %v)", name, Names())
}

// checkPlanArgs validates the selection geometry shared by every
// estimator.
func checkPlanArgs(numRegions, budget int) error {
	if numRegions < 1 {
		return fmt.Errorf("sampling: %d regions, need >= 1", numRegions)
	}
	if budget < 1 || budget > numRegions {
		return fmt.Errorf("sampling: budget %d outside 1..%d regions", budget, numRegions)
	}
	return nil
}

// gather pulls the measured CPI of every planned region, in order,
// erroring on a missing measurement — a plan must never silently
// estimate from a partial sample.
func gather(cpi map[int]float64, regions []int) ([]float64, error) {
	xs := make([]float64, len(regions))
	for i, r := range regions {
		v, ok := cpi[r]
		if !ok {
			return nil, fmt.Errorf("sampling: region %d was planned but not measured", r)
		}
		xs[i] = v
	}
	return xs, nil
}

// selectSystematic appends the n indices start, start+stride,
// start+2*stride, ... to dst: the region-selection inner loop shared
// by the uniform and stratified estimators.
//
//pbcheck:hotpath
func selectSystematic(dst []int, start, stride, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, start+i*stride)
	}
	return dst
}

// meanOf returns the arithmetic mean of xs (NaN for an empty sample).
//
//pbcheck:pure
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sampleVar returns the unbiased (n-1 denominator) sample variance of
// xs around mean; zero when fewer than two samples exist.
//
//pbcheck:pure
func sampleVar(xs []float64, mean float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// srsHalf returns the 95% CI half-width of a mean of m samples drawn
// without replacement from a population of size n: z * sqrt(s2/m *
// (1 - m/n)). The finite-population correction makes the interval
// collapse to zero for a census.
//
//pbcheck:pure
func srsHalf(s2 float64, m, n int) float64 {
	if m < 1 || n < 1 {
		return math.NaN()
	}
	fpc := 1 - float64(m)/float64(n)
	if fpc < 0 {
		fpc = 0
	}
	return z95 * math.Sqrt(s2/float64(m)*fpc)
}

// proxyLess orders two region indices by ascending proxy score with
// the index as a deterministic tie-break.
//
//pbcheck:pure
func proxyLess(proxy []float64, a, b int) bool {
	if proxy[a] < proxy[b] {
		return true
	}
	if proxy[b] < proxy[a] {
		return false
	}
	return a < b
}

// regionsByProxy returns the region indices 0..n-1 ordered by
// ascending proxy score (deterministically).
func regionsByProxy(proxy []float64) []int {
	order := make([]int, len(proxy))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return proxyLess(proxy, order[i], order[j]) })
	return order
}
