package flow

// dataflow.go is the generic half of the flow layer: a worklist
// fixpoint solver over the CFGs cfg.go builds. A rule supplies a
// Problem — the lattice boundary/bottom elements plus a transfer
// function — and gets back the In/Out state of every block at the
// least fixpoint.
//
// Convergence contract: the solver terminates whenever the problem's
// lattice has finite height (every strictly ascending Join chain is
// finite) and Transfer is monotone (joining inputs never shrinks
// outputs). The client, errflow, draws its unchecked-assignment maps
// from a finite power-set lattice, and dataflow_test.go pins
// termination and join monotonicity for power-set state shapes on
// seeded CFGs.

// A State is one element of a dataflow lattice. Implementations are
// treated as immutable by the solver: Join must return a fresh (or
// shared-and-never-mutated) value rather than modifying either
// operand.
type State interface {
	// Join returns the least upper bound of the receiver and other.
	Join(other State) State
	// Equal reports whether two states are the same lattice element;
	// the solver uses it to detect the fixpoint.
	Equal(other State) bool
}

// A Problem describes one dataflow analysis over a CFG.
type Problem interface {
	// Boundary is the state entering the graph: at Entry for a forward
	// problem, at Exit for a backward one.
	Boundary() State
	// Bottom is the join identity seeded at every other block before
	// iteration ("unreachable/no information yet").
	Bottom() State
	// Transfer computes the state leaving block b (in flow direction)
	// from the state entering it. It must not mutate in.
	Transfer(b *Block, in State) State
	// Backward reverses the edge direction: In becomes the join over
	// successors and iteration starts from Exit.
	Backward() bool
}

// A Result holds the fixpoint: for every block, the state entering it
// (In) and leaving it (Out), both in flow direction.
type Result struct {
	In  map[*Block]State
	Out map[*Block]State
}

// Solve runs the worklist algorithm to the least fixpoint and returns
// the per-block states. Blocks unreachable in the flow direction stay
// at Bottom.
func Solve(g *CFG, p Problem) *Result {
	res := &Result{
		In:  make(map[*Block]State, len(g.Blocks)),
		Out: make(map[*Block]State, len(g.Blocks)),
	}
	start := g.Entry
	if p.Backward() {
		start = g.Exit
	}
	for _, b := range g.Blocks {
		res.In[b] = p.Bottom()
	}
	res.In[start] = p.Boundary()

	// preds/succs in flow direction.
	into := func(b *Block) []*Block {
		if p.Backward() {
			return b.Succs
		}
		return b.Preds
	}
	outof := func(b *Block) []*Block {
		if p.Backward() {
			return b.Preds
		}
		return b.Succs
	}

	// Worklist seeded with every block in index order (a reverse
	// postorder approximation: the builder emits blocks roughly in
	// control order, so forward problems converge in few passes).
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make(map[*Block]bool, len(g.Blocks))
	for _, b := range work {
		queued[b] = true
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		in := res.In[b]
		if preds := into(b); len(preds) > 0 {
			in = p.Bottom()
			for _, q := range preds {
				if o, ok := res.Out[q]; ok {
					in = in.Join(o)
				}
			}
			if b == start {
				in = in.Join(p.Boundary())
			}
			res.In[b] = in
		}
		out := p.Transfer(b, in)
		if prev, ok := res.Out[b]; ok && prev.Equal(out) {
			continue
		}
		res.Out[b] = out
		for _, s := range outof(b) {
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
