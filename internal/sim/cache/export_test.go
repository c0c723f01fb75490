package cache

// Reference-walk and state-comparison hooks for the external tests,
// which build their hierarchies through the simulator.

// WalkCode runs the reference walk on the instruction side.
func (h *Hierarchy) WalkCode(start, size uint64) { h.walk(h.L1I, h.ITLB, start, size) }

// WalkData runs the reference walk on the data side.
func (h *Hierarchy) WalkData(start, size uint64) { h.walk(h.L1D, h.DTLB, start, size) }

// SameHierarchy reports the first state difference between a and b.
var SameHierarchy = sameHierarchy
