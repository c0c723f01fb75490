package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// sameWarmState reports the first difference between two CPUs in the
// state functional warming defines: every cache and TLB (lines, clocks,
// counters), the DRAM counter, the direction predictor, BTB, RAS, the
// last fetched I-cache block, the cycle and the statistics.
func sameWarmState(a, b *CPU) error {
	for _, p := range []struct {
		name string
		a, b any
	}{
		{"hierarchy", a.hier, b.hier},
		{"predictor", a.pred, b.pred},
		{"BTB", a.btb, b.btb},
		{"RAS", a.ras, b.ras},
		{"lastFetchBlock", a.lastFetchBlock, b.lastFetchBlock},
		{"cycle", a.cycle, b.cycle},
		{"stats", a.stats, b.stats},
	} {
		if !reflect.DeepEqual(p.a, p.b) {
			return fmt.Errorf("%s differs", p.name)
		}
	}
	return nil
}

// checkReplay warms one CPU with WarmFunctional(n) and another by
// replaying trace.Record(gen, n), both from the generator position
// snap, and fails on any difference in warmed state or in where the
// generator is left. It returns the tape.
func checkReplay(t *testing.T, what string, cfg Config, gen *trace.Generator, snap trace.Snapshot, n int64) *trace.Tape {
	t.Helper()
	warmed := func() *CPU {
		if err := gen.Restore(snap); err != nil {
			t.Fatal(err)
		}
		cpu, err := New(cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		return cpu
	}
	ref := warmed()
	ref.WarmFunctional(n)
	refEnd := gen.Snapshot()
	rep := warmed()
	tape := trace.Record(gen, n)
	if end := gen.Snapshot(); !reflect.DeepEqual(end, refEnd) {
		t.Fatalf("%s: Record(%d) leaves the generator at %d, WarmFunctional at %d", what, n, end.Pos(), refEnd.Pos())
	}
	if tape.Len() != n {
		t.Fatalf("%s: tape holds %d instructions, want %d", what, tape.Len(), n)
	}
	rep.WarmTape(tape)
	if err := sameWarmState(ref, rep); err != nil {
		t.Fatalf("%s: replaying %d instructions: %v", what, n, err)
	}
	return tape
}

// tapeLast returns the tape's final instruction.
func tapeLast(tape *trace.Tape) trace.Instr {
	var in trace.Instr
	for r := tape.Reader(); r.More(); {
		r.Next(&in)
	}
	return in
}

// TestWarmTapeMatchesWarmFunctionalOnDesign is the replay oracle over
// the real inputs: every row of the X=44 foldover design (half of them
// with a perfect predictor, so pred == nil) against every workload, at
// a random stream offset and window length per row.
func TestWarmTapeMatchesWarmFunctionalOnDesign(t *testing.T) {
	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 11
	}
	rng := rand.New(rand.NewSource(13))
	var perfect, takenEnd, bytes, instrs int64
	for _, w := range workload.All() {
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < design.Runs(); r += stride {
			cfg := ConfigForLevels(design.Row(r))
			gen.Skip(rng.Int63n(4000))
			n := rng.Int63n(3000)
			tape := checkReplay(t, fmt.Sprintf("%s row %d", w.Name, r), cfg, gen, gen.Snapshot(), n)
			if cfg.Predictor == PredPerfect {
				perfect++
			}
			if n > 0 && tapeLast(tape).Taken {
				takenEnd++
			}
			bytes += int64(tape.Bytes())
			instrs += n
		}
	}
	if perfect == 0 || takenEnd == 0 {
		t.Fatalf("sweep missed a case: %d perfect-predictor rows, %d tapes ending on a taken branch", perfect, takenEnd)
	}
	// The tapes must stay compact: they are held for a whole suite.
	if per := float64(bytes) / float64(instrs); per > 3 {
		t.Errorf("tapes take %.2f bytes per instruction, want <= 3", per)
	}
}

// advanceTo walks gen forward until the next instruction satisfies
// match (given the instruction before it) and leaves gen positioned
// just before it. It fails the test after limit instructions.
func advanceTo(t *testing.T, gen *trace.Generator, limit int, match func(prev, next trace.Instr) bool) {
	t.Helper()
	var prev trace.Instr
	for i := 0; i < limit; i++ {
		snap := gen.Snapshot()
		in := gen.Next()
		if i > 0 && match(prev, in) {
			if err := gen.Restore(snap); err != nil {
				t.Fatal(err)
			}
			return
		}
		prev = in
	}
	t.Fatalf("no matching instruction within %d instructions", limit)
}

// TestWarmTapeEdgeCases pins the windows the encoding treats specially.
func TestWarmTapeEdgeCases(t *testing.T) {
	w, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	perfect := Default()
	perfect.Predictor = PredPerfect
	for _, cfg := range []Config{Default(), perfect} {
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, "empty window", cfg, gen, gen.Snapshot(), 0)
		checkReplay(t, "window from the stream origin", cfg, gen, gen.Snapshot(), 500)

		// A window that starts mid-block: the instruction before it is
		// a body instruction, so the first PC is not a block start.
		advanceTo(t, gen, 1000, func(prev, _ trace.Instr) bool { return !prev.Class.IsControl() })
		checkReplay(t, "window starting mid-block", cfg, gen, gen.Snapshot(), 777)

		// A tape whose last instruction is a taken branch stores the
		// target no following instruction can supply.
		start := gen.Snapshot()
		n := int64(1)
		for in := gen.Next(); in.Class != trace.Branch || !in.Taken; in = gen.Next() {
			n++
		}
		if tape := checkReplay(t, "window ending on a taken branch", cfg, gen, start, n); tapeLast(tape).Target == 0 {
			t.Fatal("taken branch at the end of the tape lost its target")
		}
	}
}

// TestWarmTapeCallFromLastBlock covers the one call whose return
// address is not its fall-through PC: a call from the program's last
// block returns to block 0. A small program with many calls reaches it
// quickly; one window ends on the call, another covers it mid-tape.
func TestWarmTapeCallFromLastBlock(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		p := workload.All()[0].Params
		p.Seed, p.NumBlocks, p.CallFraction = seed, 8, 0.3
		gen, err := trace.NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		var call trace.Instr
		pos := int64(-1)
		for i := int64(0); i < 20000 && pos < 0; i++ {
			if in := gen.Next(); in.Class == trace.Call && in.Addr != in.PC+4 {
				call, pos = in, i
			}
		}
		if pos < 0 {
			continue
		}
		if call.Addr != trace.CodeBase {
			t.Fatalf("seed %d: call at %#x returns to %#x, want block 0 at %#x", seed, call.PC, call.Addr, trace.CodeBase)
		}
		before := min(pos, 100)
		gen.Reset()
		gen.Skip(pos - before)
		at := gen.Snapshot()
		tape := checkReplay(t, "window ending on the last block's call", Default(), gen, at, before+1)
		call.Dep1, call.Dep2 = 0, 0 // a tape drops dependencies
		if in := tapeLast(tape); in != call {
			t.Fatalf("decoded call %+v, want %+v", in, call)
		}
		checkReplay(t, "window through the last block's call", Default(), gen, at, before+400)
		return
	}
	t.Fatal("no seed produced a call from the last block")
}
