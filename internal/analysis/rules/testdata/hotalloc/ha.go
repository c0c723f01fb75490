// Package hotalloc seeds violations for the hotalloc analyzer: every
// construct the fact engine's steady-state allocation model counts,
// the transitive and class-hierarchy propagation paths, plus the
// allowed idioms (self-append, pure-math calls) that must NOT fire.
package hotalloc

import "strings"

type point struct{ x, y int }

// clean is provably allocation-free: arithmetic, indexing, and the
// sanctioned self-append reuse idiom.
//
//pbcheck:hotpath
func clean(buf []int, v int) []int {
	v += v * 2
	buf = append(buf, v)
	return buf
}

// makes allocates directly.
//
//pbcheck:hotpath
func makes(n int) []int {
	return make([]int, n)
}

// helper allocates; it carries the fact so hot callers inherit it.
func helper() *point {
	return &point{x: 1}
}

// viaHelper allocates one call hop away.
//
//pbcheck:hotpath
func viaHelper() *point {
	return helper()
}

// growing appends into a different slice than it extends — not the
// self-append reuse idiom (x = append(x, ...)), so it allocates.
//
//pbcheck:hotpath
func growing(src, extra []int) []int {
	merged := append(src, extra...)
	return merged
}

// capped re-slices to full capacity before appending, so every
// append copies into a fresh backing array: the left side names the
// slice, but the appended-to operand is not it, so it is not the
// self-append idiom.
//
//pbcheck:hotpath
func capped(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst[:len(dst):len(dst)], i)
	}
	return dst
}

// selfAppendOK reuses capacity via the sanctioned idiom and must stay
// silent even inside a loop.
//
//pbcheck:hotpath
func selfAppendOK(buf []int, n int) []int {
	for i := 0; i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// foreign calls outside the module and the pure-math whitelist, so
// the 0-alloc claim is unprovable.
//
//pbcheck:hotpath
func foreign(s string) string {
	return strings.ToUpper(s)
}

// stepper is a module interface: calls through it resolve by class
// hierarchy to every implementation below.
type stepper interface{ step() int }

type flat struct{ n int }

func (f *flat) step() int { return f.n + 1 }

type boxy struct{ n int }

func (b *boxy) step() int {
	s := make([]int, 1) // the CHA edge drags this into every caller
	s[0] = b.n
	return s[0]
}

// dispatch is hot and calls through the interface: the boxy
// implementation's allocation reaches it via the class hierarchy.
//
//pbcheck:hotpath
func dispatch(s stepper) int {
	return s.step()
}

//pbcheck:hotpath
var orphan = 3 // marker on a non-function: flagged, never silently dropped
