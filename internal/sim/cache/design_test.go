package cache_test

import (
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/sim/cache"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// TestPrewarmMemoryMatchesWalkOnDesign compares the real thing: for
// every row of the X=44 foldover design and every workload, the
// hierarchy sim.New and PrewarmMemory build must equal one warmed by
// the reference walk over the same ranges.
func TestPrewarmMemoryMatchesWalkOnDesign(t *testing.T) {
	design, err := pb.New(len(sim.Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 11
	}
	for _, w := range workload.All() {
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		code, data := w.Params.CodeFootprintBytes(), w.Params.WorkingSetBytes
		for r := 0; r < design.Runs(); r += stride {
			cfg := sim.ConfigForLevels(design.Row(r))
			fast, err := sim.New(cfg, gen, nil)
			if err != nil {
				t.Fatal(err)
			}
			fast.PrewarmMemory()
			ref, err := sim.New(cfg, gen, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.Hierarchy().WalkCode(trace.CodeBase, code)
			ref.Hierarchy().WalkData(trace.DataBase, data)
			if err := cache.SameHierarchy(fast.Hierarchy(), ref.Hierarchy()); err != nil {
				t.Fatalf("%s, row %d: %v", w.Name, r, err)
			}
		}
	}
}
