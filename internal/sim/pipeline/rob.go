package pipeline

import (
	"fmt"
	"math"

	"pbsim/internal/trace"
)

// NotReady is the ReadyAt sentinel of a dispatched but not yet
// executed instruction.
const NotReady = math.MaxInt64

// Entry is one reorder-buffer slot.
type Entry struct {
	Instr trace.Instr
	// Seq is the instruction's position in the dynamic stream.
	Seq int64
	// Issued marks that the instruction has been sent to a functional
	// unit (or bypassed one via precomputation).
	Issued bool
	// ReadyAt is the cycle at which the result is available to
	// dependents and the instruction may commit; NotReady until known.
	ReadyAt int64
	// Mispredict marks a control instruction whose prediction was
	// wrong; fetch resumes ReadyAt + penalty cycles after it executes.
	Mispredict bool
	// Precomputed marks an instruction satisfied by the precomputation
	// or value-reuse table instead of a functional unit.
	Precomputed bool
}

// ROB is a bounded in-order circular buffer of in-flight instructions.
type ROB struct {
	entries []Entry
	head    int
	count   int
}

// NewROB creates a reorder buffer with the given capacity.
func NewROB(capacity int) (*ROB, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pipeline: ROB capacity %d invalid", capacity)
	}
	return &ROB{entries: make([]Entry, capacity)}, nil
}

// Capacity returns the configured size.
func (r *ROB) Capacity() int { return len(r.entries) }

// Len returns the current occupancy.
func (r *ROB) Len() int { return r.count }

// Full reports whether no slot is free.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether the buffer holds no instructions.
func (r *ROB) Empty() bool { return r.count == 0 }

// Push allocates the tail entry and returns it for initialization. It
// must not be called on a full buffer.
//
//pbcheck:hotpath
func (r *ROB) Push() *Entry {
	if r.Full() {
		panic("pipeline: Push on full ROB")
	}
	// head+count < 2*len always holds, so a conditional wrap replaces
	// the modulo in this per-dispatch path.
	idx := r.head + r.count
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	r.count++
	e := &r.entries[idx]
	*e = Entry{ReadyAt: NotReady}
	return e
}

// Head returns the oldest entry, or nil when empty.
//
//pbcheck:hotpath
func (r *ROB) Head() *Entry {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// PopHead retires the oldest entry. It must not be called on an empty
// buffer.
//
//pbcheck:hotpath
func (r *ROB) PopHead() {
	if r.count == 0 {
		panic("pipeline: PopHead on empty ROB")
	}
	r.head++
	if r.head == len(r.entries) {
		r.head = 0
	}
	r.count--
}

// At returns the i-th oldest entry (0 = head). The pointer is valid
// until the entry is popped. Not a hot path: the guard below formats
// its panic, which allocates.
func (r *ROB) At(i int) *Entry {
	if i < 0 || i >= r.count {
		panic(fmt.Sprintf("pipeline: ROB index %d out of range [0,%d)", i, r.count))
	}
	idx := r.head + i
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	return &r.entries[idx]
}

// LSQ tracks load-store queue occupancy. Entries are allocated at
// dispatch and released at commit; the timing of the accesses
// themselves is handled by the memory hierarchy.
type LSQ struct {
	capacity int
	used     int
}

// NewLSQ creates a load-store queue with the given capacity.
func NewLSQ(capacity int) (*LSQ, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pipeline: LSQ capacity %d invalid", capacity)
	}
	return &LSQ{capacity: capacity}, nil
}

// Capacity returns the configured size.
func (q *LSQ) Capacity() int { return q.capacity }

// Len returns current occupancy.
func (q *LSQ) Len() int { return q.used }

// Full reports whether no slot is free.
func (q *LSQ) Full() bool { return q.used == q.capacity }

// Alloc takes one slot; it reports false when full.
//
//pbcheck:hotpath
func (q *LSQ) Alloc() bool {
	if q.Full() {
		return false
	}
	q.used++
	return true
}

// Release frees one slot.
//
//pbcheck:hotpath
func (q *LSQ) Release() {
	if q.used == 0 {
		panic("pipeline: Release on empty LSQ")
	}
	q.used--
}
