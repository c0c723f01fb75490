// Package sim is the top of the synthetic 3-package module. Its
// directory name puts it under the determinism invariant
// (pathHasSegment sees the "sim" segment), and it is the only package
// of the triple the golden test loads for analysis — flow and clock
// enter the universe as dependencies, so every finding here proves
// interprocedural propagation across an analysis boundary.
package sim

import "pbsim/internal/analysis/rules/testdata/facts/flow"

// Caller reaches time.Now two hops and one package boundary away:
// sim.Caller -> flow.Helper -> clock.Clock -> time.Now.
func Caller() int64 {
	return flow.Helper()
}

// Hot is a hot path whose allocation lives two packages down.
//
//pbcheck:hotpath
func Hot() []int {
	return flow.Allocates()
}

// Clean calls only fact-free code and must stay silent.
//
//pbcheck:hotpath
func Clean(a int) int {
	return flow.Pure(a)
}

// PureCaller claims purity but reaches the wall clock two hops and
// one package boundary away: the finding must name every hop.
//
//pbcheck:pure
func PureCaller() int64 {
	return flow.Helper()
}

// PureMut claims purity but reaches a package-state write the same
// way.
//
//pbcheck:pure
func PureMut() {
	flow.Touch()
}
