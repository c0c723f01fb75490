// Package clock is the bottom of the synthetic 3-package module used
// by the fact-propagation tests: it holds the actual sinks.
package clock

import "time"

// Clock reads the wall clock: the nondeterminism sink, two call hops
// and one package boundary away from the deterministic caller in
// testdata/facts/sim.
func Clock() int64 {
	return time.Now().UnixNano()
}

// Waived reads the wall clock under a reasoned waiver, so it seeds
// no fact.
func Waived() int64 {
	return time.Now().UnixNano() //pbcheck:ignore determinism seeded-waiver fixture: the waiver must cut the fact
}

// Alloc allocates: the allocates sink.
func Alloc(n int) []int {
	return make([]int, n)
}

// Pure is fact-free and must stay that way through the fixpoint.
func Pure(a, b int) int {
	return a + b
}

// State is the package-level variable Mutate writes: the write-effect
// sink of the propagation chain.
var State int

// Mutate writes package state.
func Mutate() {
	State = 7
}
