// Package fe seeds float equality comparisons outside the approved
// stats helpers: every == and != on float operands is flagged, as is
// a switch on a float tag. Ordering comparisons and integer equality
// stay legal.
package fe

// ExactEq compares float64 with ==: flagged.
func ExactEq(a, b float64) bool { return a == b }

// NotEq compares float32 with !=: flagged.
func NotEq(a, b float32) bool { return a != b }

// Classify switches on a float tag: flagged.
func Classify(x float64) int {
	switch x {
	case 0:
		return 0
	}
	return 1
}

// IntEq is integer equality: not flagged.
func IntEq(a, b int) bool { return a == b }

// Less is an ordering comparison: not flagged.
func Less(a, b float64) bool { return a < b }

// Celsius is a named float type; equality on it is still flagged.
type Celsius float64

// SameTemp compares a named float type: flagged.
func SameTemp(a, b Celsius) bool { return a == b }

// ByMagnitude is a sort comparator with an exact float tie test:
// flagged. With NaN effects the != holds for equal (NaN) keys, so the
// comparator stops being a strict weak order.
func ByMagnitude(ea, eb float64, ia, ib int) bool {
	if ea != eb {
		return ea > eb
	}
	return ia < ib
}
