// Package flow is the middle of the synthetic 3-package module: it
// launders the clock package's sinks through one call boundary
// without containing any sink itself.
package flow

import "pbsim/internal/analysis/rules/testdata/facts/clock"

// Helper reaches the wall clock through clock.Clock.
func Helper() int64 {
	return clock.Clock()
}

// Allocates reaches an allocation through clock.Alloc.
func Allocates() []int {
	return clock.Alloc(8)
}

// Pure stays fact-free.
func Pure(a int) int {
	return clock.Pure(a, a)
}

// Touch launders clock's package-state write through one boundary.
func Touch() {
	clock.Mutate()
}
