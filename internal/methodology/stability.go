package methodology

import (
	"fmt"
	"sort"

	"pbsim/internal/pb"
)

// StabilityReport quantifies how robust a suite's sum-of-ranks
// ordering is to the benchmark selection, via leave-one-out
// (jackknife) resampling: a parameter whose position swings wildly
// when one benchmark is dropped owes its apparent significance to that
// single benchmark.
type StabilityReport struct {
	// Factors[i] describes factor i of the suite.
	Factors []FactorStability
}

// FactorStability summarizes one factor's position across the
// leave-one-out orderings.
type FactorStability struct {
	Factor pb.Factor
	// FullPosition is the 1-based position in the full-suite ordering.
	FullPosition int
	// MinPosition and MaxPosition bound the positions observed across
	// all leave-one-out orderings.
	MinPosition, MaxPosition int
	// Spread = MaxPosition - MinPosition; small spreads mean the
	// ordering does not hinge on any single benchmark.
	Spread int
}

// Jackknife computes the leave-one-out stability of a suite's
// ordering. It needs at least two benchmarks.
func Jackknife(suite *pb.Suite) (*StabilityReport, error) {
	nb := len(suite.RankRows)
	if nb < 2 {
		return nil, fmt.Errorf("methodology: jackknife needs >= 2 benchmarks, got %d", nb)
	}
	nf := len(suite.Sums)
	rep := &StabilityReport{Factors: make([]FactorStability, nf)}
	for pos, f := range suite.Order {
		rep.Factors[f] = FactorStability{
			Factor:       suite.Factors[f],
			FullPosition: pos + 1,
			MinPosition:  pos + 1,
			MaxPosition:  pos + 1,
		}
	}
	for drop := 0; drop < nb; drop++ {
		var rows [][]int
		for b, row := range suite.RankRows {
			if b != drop {
				rows = append(rows, row)
			}
		}
		sums := pb.SumOfRanks(rows)
		order := pb.OrderBySum(sums)
		for pos, f := range order {
			fs := &rep.Factors[f]
			if pos+1 < fs.MinPosition {
				fs.MinPosition = pos + 1
			}
			if pos+1 > fs.MaxPosition {
				fs.MaxPosition = pos + 1
			}
		}
	}
	for i := range rep.Factors {
		rep.Factors[i].Spread = rep.Factors[i].MaxPosition - rep.Factors[i].MinPosition
	}
	return rep, nil
}

// ByFullPosition returns the factor stabilities sorted by the
// full-suite ordering.
func (r *StabilityReport) ByFullPosition() []FactorStability {
	out := make([]FactorStability, len(r.Factors))
	copy(out, r.Factors)
	sort.Slice(out, func(a, b int) bool { return out[a].FullPosition < out[b].FullPosition })
	return out
}
