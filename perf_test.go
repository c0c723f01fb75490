package pbsim

import (
	"testing"

	"pbsim/internal/sim"
	"pbsim/internal/stats"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// The hot-path allocation guards below pin the two inner loops the
// performance pass optimized at zero heap allocations per operation:
// any future change that reintroduces a per-instruction allocation
// fails these tests immediately, long before a benchmark trajectory
// would reveal it. AllocsPerRun returns float64, so the comparisons
// state their (exact) tolerance via stats.ApproxEqual.

// TestTraceGeneratorZeroAllocs pins the steady-state instruction
// stream: after construction, Next must not touch the heap.
func TestTraceGeneratorZeroAllocs(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Instr
	allocs := testing.AllocsPerRun(1000, func() {
		sink = gen.Next()
	})
	_ = sink
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("trace generator Next allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSimulatorStepZeroAllocs pins the simulator's steady-state
// cycle loop (fetch/dispatch/issue/commit over a warmed machine), both
// on a compute-bound run and on a memory-bound one (mcf with a
// 200-cycle first-chunk DRAM latency), where most cycles are idle and
// skipped.
func TestSimulatorStepZeroAllocs(t *testing.T) {
	memBound := sim.Default()
	memBound.MemLatFirst = 200
	for _, c := range []struct {
		bench string
		cfg   sim.Config
	}{{"gzip", sim.Default()}, {"mcf", memBound}} {
		w, err := workload.ByName(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := sim.New(c.cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		committed := int64(2000)
		if _, err := cpu.Run(committed); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			committed += 100
			if _, err := cpu.Run(committed); err != nil {
				t.Fatal(err)
			}
		})
		if !stats.ApproxEqual(allocs, 0, 0) {
			t.Errorf("%s: simulator steady-state step allocates %.1f objects/op, want 0", c.bench, allocs)
		}
	}
}

// TestPrewarmMemoryZeroAllocs pins memory prewarming, which every
// design row and every sampled region group runs once on a fresh CPU.
func TestPrewarmMemoryZeroAllocs(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function runs+1 times; each call warms a
	// CPU of its own so every call takes the fresh-hierarchy path.
	const runs = 4
	cpus := make([]*sim.CPU, runs+1)
	for i := range cpus {
		if cpus[i], err = sim.New(sim.Default(), gen, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		cpus[next].PrewarmMemory()
		next++
	})
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("PrewarmMemory allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWarmTapeZeroAllocs pins tape replay, which every design row of a
// sampled suite runs once per region group: decoding and training must
// not touch the heap.
func TestWarmTapeZeroAllocs(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	tape := trace.Record(gen, 5000)
	cpu, err := sim.New(sim.Default(), gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	allocs := testing.AllocsPerRun(20, func() {
		cpu.WarmTape(tape)
	})
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("WarmTape allocates %.1f objects/op, want 0", allocs)
	}
}
