package sampling

import (
	"math"
	"sync"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// testWindow keeps these tests fast: 24 regions of the minimum size.
const (
	testWarmup  = 2000
	testMeasure = 24 * minRegionSize
)

func testGen(t *testing.T, name string) *trace.Generator {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(w.Params)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func fullCycles(t *testing.T, cfg sim.Config, gen *trace.Generator, warmup, instructions int64) float64 {
	t.Helper()
	gen.Reset()
	cpu, err := sim.New(cfg, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	st, err := cpu.RunWithWarmup(warmup, instructions)
	if err != nil {
		t.Fatal(err)
	}
	return float64(st.Cycles)
}

// TestFractionOneReproducesFullRunBitIdentically is the property the
// whole opt-in design rests on: Fraction 1.0 must return the exact
// full-simulation response, bit for bit, for any workload and config.
func TestFractionOneReproducesFullRunBitIdentically(t *testing.T) {
	small := sim.Default()
	small.ROBEntries = 8
	small.MispredictPenalty = 12
	configs := []sim.Config{sim.Default(), small}
	for _, name := range []string{"gzip", "mcf"} {
		for ci, cfg := range configs {
			gen := testGen(t, name)
			want := fullCycles(t, cfg, gen, testWarmup, testMeasure)
			for _, est := range Names() {
				spec := Spec{Estimator: est, RegionSize: minRegionSize, Fraction: 1.0, RegionWarmup: -1, Seed: 7}
				res, err := Run(cfg, gen, testWarmup, testMeasure, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Census {
					t.Fatalf("%s/%s cfg %d: fraction 1.0 did not take the census path", name, est, ci)
				}
				if math.Float64bits(res.Cycles) != math.Float64bits(want) {
					t.Fatalf("%s/%s cfg %d: census cycles %v != full-run %v", name, est, ci, res.Cycles, want)
				}
				if res.CIHalf != 0 || res.CyclesCIHalf != 0 {
					t.Fatalf("%s/%s cfg %d: census CI must be zero, got %v", name, est, ci, res.CIHalf)
				}
				if res.SampledRegions != res.NumRegions {
					t.Fatalf("%s/%s cfg %d: census sampled %d of %d regions", name, est, ci, res.SampledRegions, res.NumRegions)
				}
			}
		}
	}
}

// TestRunIsDeterministic pins bit-reproducibility of the sampled path:
// two runs with the same spec agree in every float bit, from any
// generator position.
func TestRunIsDeterministic(t *testing.T) {
	cfg := sim.Default()
	for _, est := range Names() {
		spec := Spec{Estimator: est, RegionSize: minRegionSize, Fraction: 0.25, RegionWarmup: -1, Seed: 11}
		gen := testGen(t, "gzip")
		a, err := Run(cfg, gen, testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		gen.Skip(999) // position must not matter
		b, err := Run(cfg, gen, testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.CPI) != math.Float64bits(b.CPI) ||
			math.Float64bits(a.CIHalf) != math.Float64bits(b.CIHalf) ||
			a.DetailedInstructions != b.DetailedInstructions {
			t.Fatalf("%s: runs differ: %+v vs %+v", est, a, b)
		}
		if a.Census {
			t.Fatalf("%s: fraction 0.25 should not take the census path", est)
		}
	}
}

// TestSampledEstimateTracksFullRun is the accuracy sanity check: with a
// quarter of the regions, every estimator's CPI must land within a few
// percent of the full-simulation CPI, and the detailed cost must be
// well below the full run's.
func TestSampledEstimateTracksFullRun(t *testing.T) {
	cfg := sim.Default()
	gen := testGen(t, "gzip")
	fullCPI := fullCycles(t, cfg, gen, testWarmup, testMeasure) / float64(testMeasure)
	for _, est := range Names() {
		// A functional warmup spanning the whole (tiny) window stands in
		// for the default 8x region warm a paper-scale window would use.
		spec := Spec{Estimator: est, RegionSize: minRegionSize, Fraction: 0.25, RegionWarmup: 64, FuncWarmup: 8192, Seed: 3}
		res, err := Run(cfg, gen, testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(res.CPI/fullCPI - 1); rel > 0.10 {
			t.Errorf("%s: sampled CPI %.4f vs full %.4f (rel err %.1f%%)", est, res.CPI, fullCPI, 100*rel)
		}
		if res.CIHalf < 0 || math.IsNaN(res.CIHalf) {
			t.Errorf("%s: bad CI half-width %v", est, res.CIHalf)
		}
		full := int64(testWarmup + testMeasure)
		if res.DetailedInstructions >= full/2 {
			t.Errorf("%s: detailed cost %d not meaningfully below full %d", est, res.DetailedInstructions, full)
		}
	}
}

// TestSingleRegionProgram covers the window-shorter-than-a-region edge:
// one region forces a census regardless of fraction.
func TestSingleRegionProgram(t *testing.T) {
	cfg := sim.Default()
	gen := testGen(t, "gzip")
	const tiny = minRegionSize / 2
	want := fullCycles(t, cfg, gen, 0, tiny)
	res, err := Run(cfg, gen, 0, tiny, Spec{RegionSize: minRegionSize, Fraction: 0.1, RegionWarmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Census || res.NumRegions != 1 {
		t.Fatalf("tiny window: want census over 1 region, got %+v", res)
	}
	if math.Float64bits(res.Cycles) != math.Float64bits(want) {
		t.Fatalf("tiny window census cycles %v != full-run %v", res.Cycles, want)
	}
}

// TestFractionClampsToCensus covers "region count smaller than sample
// size": a fraction rounding to the whole population degenerates to a
// census instead of over-selecting.
func TestFractionClampsToCensus(t *testing.T) {
	gen := testGen(t, "gzip")
	res, err := Run(sim.Default(), gen, 0, 2*minRegionSize, Spec{RegionSize: minRegionSize, Fraction: 0.9, RegionWarmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Census || res.NumRegions != 2 || res.SampledRegions != 2 {
		t.Fatalf("fraction 0.9 of 2 regions should census both, got %+v", res)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	cfg := sim.Default()
	gen := testGen(t, "gzip")
	if _, err := Run(cfg, gen, -1, testMeasure, Spec{}); err == nil {
		t.Fatal("negative warmup must be rejected")
	}
	if _, err := Run(cfg, gen, 0, 0, Spec{}); err == nil {
		t.Fatal("zero instructions must be rejected")
	}
	if _, err := Run(cfg, gen, 0, testMeasure, Spec{Estimator: "bogus"}); err == nil {
		t.Fatal("unknown estimator must be rejected")
	}
}

// TestCostOfMatchesRun pins the frontier's cost accounting: CostOf must
// report exactly the detailed instructions a subsequent Run burns, plus
// the same one-time functional cost.
func TestCostOfMatchesRun(t *testing.T) {
	cfg := sim.Default()
	gen := testGen(t, "mcf")
	for _, est := range Names() {
		spec := Spec{Estimator: est, RegionSize: minRegionSize, Fraction: 0.25, RegionWarmup: -1, Seed: 5}
		cost, err := CostOf(gen.Params(), testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, gen, testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		if cost.PerRunDetailed != res.DetailedInstructions {
			t.Fatalf("%s: CostOf predicts %d detailed, Run burned %d", est, cost.PerRunDetailed, res.DetailedInstructions)
		}
		if cost.ScheduleFunctional != res.ScheduleFunctional {
			t.Fatalf("%s: functional cost mismatch: %d vs %d", est, cost.ScheduleFunctional, res.ScheduleFunctional)
		}
		if cost.PerRunFunctional != res.FunctionalInstructions {
			t.Fatalf("%s: CostOf predicts %d functional, Run warmed %d", est, cost.PerRunFunctional, res.FunctionalInstructions)
		}
		if cost.SampledRegions != res.SampledRegions || cost.NumRegions != res.NumRegions {
			t.Fatalf("%s: geometry mismatch: %+v vs %+v", est, cost, res)
		}
	}
}

// TestSeedsDecorrelateWorkloads checks that two workloads sample
// different region sets under the same spec (the per-workload seed mix)
// while two specs differing only in Seed differ for one workload.
func TestSeedsDecorrelateWorkloads(t *testing.T) {
	spec := Spec{Estimator: EstimatorUniform, RegionSize: minRegionSize, Fraction: 0.25, RegionWarmup: -1, Seed: 1}.Normalized()
	regionsOf := func(gen *trace.Generator) []int {
		sch, err := scheduleFor(gen, testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		return sch.regions
	}
	a := regionsOf(testGen(t, "gzip"))
	b := regionsOf(testGen(t, "mcf"))
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("gzip and mcf selected identical regions %v; workload seeds not mixed in", a)
	}
}

// TestSessionConcurrentRecording races many rows of one session onto
// the first region group, so one records the warming tape while the
// rest wait for it; every row must equal a one-shot Run of its own.
// Run it under -race.
func TestSessionConcurrentRecording(t *testing.T) {
	design, err := pb.New(len(sim.Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{RegionSize: minRegionSize, Fraction: 0.2, RegionWarmup: -1, FuncWarmup: 3000, Seed: 9}
	sess, err := NewSession(testWarmup, testMeasure, spec)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 12
	gens := make([]*trace.Generator, rows)
	for i := range gens {
		gens[i] = testGen(t, "twolf")
	}
	got := make([]Result, rows)
	errs := make([]error, rows)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < rows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = sess.Run(sim.ConfigForLevels(design.Row(i*7)), gens[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < rows; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Run(sim.ConfigForLevels(design.Row(i*7)), testGen(t, "twolf"), testWarmup, testMeasure, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("row %d: session run %+v, one-shot run %+v", i*7, got[i], want)
		}
		if got[i].FunctionalInstructions == 0 {
			t.Fatalf("row %d: no functional warming recorded", i*7)
		}
	}
}

// TestSessionServesOneWorkload: the tapes belong to one workload's
// stream, so a second workload through the same session is an error.
func TestSessionServesOneWorkload(t *testing.T) {
	spec := Spec{RegionSize: minRegionSize, Fraction: 0.2, RegionWarmup: -1, Seed: 9}
	sess, err := NewSession(testWarmup, testMeasure, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(sim.Default(), testGen(t, "gzip")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(sim.Default(), testGen(t, "mcf")); err == nil {
		t.Fatal("a session bound to gzip ran mcf")
	}
}
