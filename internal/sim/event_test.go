package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/pb"
	"pbsim/internal/workload"
)

// runPhases runs a prewarmed CPU through RunWithWarmup and two RunMore
// increments and returns each phase's statistics and error, and how far
// the CPU read its instruction stream.
func runPhases(t *testing.T, cfg Config, w workload.Workload, shortcut ComputeShortcut, stepping bool) ([]Stats, []error, int64) {
	t.Helper()
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(cfg, gen, shortcut)
	if err != nil {
		t.Fatal(err)
	}
	if stepping {
		cpu.SetStepping()
	}
	cpu.PrewarmMemory()
	var stats []Stats
	var errs []error
	st, err := cpu.RunWithWarmup(500, 1500)
	stats, errs = append(stats, st), append(errs, err)
	for _, n := range []int64{700, 300} {
		st, err := cpu.RunMore(n)
		stats, errs = append(stats, st), append(errs, err)
	}
	return stats, errs, gen.Emitted()
}

// TestEventAdvanceMatchesStepping is the oracle for the event-driven
// cycle advance: over every row of the X=44 foldover design and every
// workload, with and without a 128-entry precomputation table, skipping
// idle cycles and gating issue on its wake cycle must give exactly the
// statistics, errors and stream position of running every stage on
// every cycle.
func TestEventAdvanceMatchesStepping(t *testing.T) {
	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 11
	}
	for _, w := range workload.All() {
		freq, err := enhance.Profile(w.Params, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < design.Runs(); r += stride {
			cfg := ConfigForLevels(design.Row(r))
			for _, precomp := range []bool{false, true} {
				shortcut := func() ComputeShortcut {
					if !precomp {
						return nil
					}
					p, err := enhance.NewPrecomputation(freq, 128)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				what := fmt.Sprintf("%s row %d precomputation=%v", w.Name, r, precomp)
				evStats, evErrs, evEmitted := runPhases(t, cfg, w, shortcut(), false)
				stStats, stErrs, stEmitted := runPhases(t, cfg, w, shortcut(), true)
				if !reflect.DeepEqual(evErrs, stErrs) {
					t.Fatalf("%s: errors %v, stepping %v", what, evErrs, stErrs)
				}
				for i := range evStats {
					if !reflect.DeepEqual(evStats[i], stStats[i]) {
						t.Fatalf("%s: phase %d statistics differ:\n event    %+v\n stepping %+v", what, i, evStats[i], stStats[i])
					}
				}
				if evEmitted != stEmitted {
					t.Fatalf("%s: stream read to %d, stepping to %d", what, evEmitted, stEmitted)
				}
			}
		}
	}
}

// TestProgressBoundMatchesStepping holds the ROB head unissued so the
// pipeline can never commit again, and checks that the idle-cycle skip
// stops at the same progress bound, on the same cycle, as stepping.
func TestProgressBoundMatchesStepping(t *testing.T) {
	for _, stepping := range []bool{false, true} {
		cpu, err := New(Default(), testGen(t, "gzip"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stepping {
			cpu.SetStepping()
		}
		cpu.PrewarmMemory()
		if _, err := cpu.Run(1000); err != nil {
			t.Fatal(err)
		}
		if cpu.rob.Empty() {
			t.Fatal("ROB empty after 1000 commits; nothing to hold")
		}
		cpu.HoldHead()
		start := cpu.cycle
		_, err = cpu.Run(1001)
		want := fmt.Sprintf("sim: no forward progress after %d cycles (1000/1001 committed)", start+2000+100000+1)
		if err == nil || err.Error() != want {
			t.Fatalf("stepping=%v: error %v, want %q", stepping, err, want)
		}
	}
}
