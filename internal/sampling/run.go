package sampling

import (
	"fmt"
	"sync"

	"pbsim/internal/sim"
	"pbsim/internal/trace"
)

// Result is one sampled simulation's outcome: the CPI estimate with
// its 95% confidence interval, the extrapolated cycle count over the
// measured window, and the cost accounting behind the
// accuracy-vs-speed frontier.
type Result struct {
	// Estimator names the scheme that produced the estimate.
	Estimator string
	// NumRegions is the region population of the measured window;
	// SampledRegions counts the distinct regions detail-simulated.
	NumRegions     int
	SampledRegions int
	// CPI is the whole-window estimate; CIHalf is the half-width of
	// its 95% confidence interval (zero for a census).
	CPI    float64
	CIHalf float64
	// Cycles extrapolates CPI over the measured window (for a census,
	// the exact simulated cycle count); CyclesCIHalf scales CIHalf the
	// same way.
	Cycles       float64
	CyclesCIHalf float64
	// DetailedInstructions is this run's detail-simulated cost,
	// including per-region warmup. FunctionalInstructions is this run's
	// functional-warming cost: predictor/cache training before each
	// group, replayed from the session's recorded windows at ~40–65 ns
	// per instruction against ~500 ns per detailed instruction (2-vCPU
	// Xeon VM). ScheduleFunctional is the one-time
	// generator-walk cost of the shared schedule (proxy + snapshot
	// passes), paid once per workload x spec and amortized across all
	// design rows; it is reported identically by every row.
	DetailedInstructions   int64
	FunctionalInstructions int64
	ScheduleFunctional     int64
	// Census marks the degenerate full-simulation path (budget covered
	// every region): the result is bit-identical to an unsampled run.
	Census bool
}

// Run executes one sampled simulation of the workload stream behind
// gen: global warmup instructions are skipped functionally, the
// measured window of `instructions` is region-sampled per spec, and
// the whole-window CPI is extrapolated with a 95% CI. The generator's
// position on entry is irrelevant (Run restores recorded snapshots);
// its allocations are reused. Selection is deterministic, so repeated
// calls — from any row of a PB design — measure identical regions.
//
// Run is a one-shot Session: it records the warming windows it
// replays. Callers that run many configurations of one workload
// share a Session instead, so each window is recorded once.
func Run(cfg sim.Config, gen *trace.Generator, warmup, instructions int64, spec Spec) (Result, error) {
	s, err := NewSession(warmup, instructions, spec)
	if err != nil {
		return Result{}, err
	}
	return s.Run(cfg, gen)
}

// Session runs the sampled simulations of one workload under one
// window and spec — in a PB suite, every design row of one benchmark —
// and records each region group's functional-warming window once: the
// first run to reach a group walks the generator through the window
// into a trace.Tape and snapshots the stream at its end, and every run
// (that one included) replays the tape instead of walking the
// generator again. The tapes live as long as the Session, not in the
// process-wide schedule memo. A Session is safe for concurrent use.
type Session struct {
	warmup, instructions int64
	spec                 Spec
	numRegions           int
	census               bool

	mu     sync.Mutex
	params trace.Params // the workload, bound by the first sampled Run
	sch    *schedule
	warm   []groupWarm // one per schedule group, recorded lazily
}

// groupWarm is one group's recorded functional-warming window.
type groupWarm struct {
	once sync.Once
	tape *trace.Tape
	end  trace.Snapshot // the stream right after the window
	err  error
}

// NewSession validates the window and spec and returns an empty
// session; nothing is simulated or recorded until the first Run.
func NewSession(warmup, instructions int64, spec Spec) (*Session, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if warmup < 0 || instructions <= 0 {
		return nil, fmt.Errorf("sampling: invalid warmup/measure counts (%d, %d)", warmup, instructions)
	}
	numRegions := regionCount(instructions, spec.RegionSize)
	return &Session{
		warmup:       warmup,
		instructions: instructions,
		spec:         spec,
		numRegions:   numRegions,
		census:       budgetFor(numRegions, spec.Fraction) >= numRegions,
	}, nil
}

// Run executes one sampled simulation of configuration cfg over the
// stream behind gen; see the package-level Run. Every generator passed
// to one Session must come from the same workload.
func (s *Session) Run(cfg sim.Config, gen *trace.Generator) (Result, error) {
	if s.census {
		return runCensus(cfg, gen, s.warmup, s.instructions, s.spec, s.numRegions)
	}
	sch, warm, err := s.schedule(gen)
	if err != nil {
		return Result{}, err
	}
	cpi, detailed, funcWarm, err := measure(cfg, gen, sch, warm, s.instructions)
	if err != nil {
		return Result{}, err
	}
	mean, half, err := sch.plan.Estimate(cpi)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Estimator:              s.spec.Estimator,
		NumRegions:             s.numRegions,
		SampledRegions:         len(sch.regions),
		CPI:                    mean,
		CIHalf:                 half,
		Cycles:                 mean * float64(s.instructions),
		CyclesCIHalf:           half * float64(s.instructions),
		DetailedInstructions:   detailed,
		FunctionalInstructions: funcWarm,
		ScheduleFunctional:     sch.functional,
	}, nil
}

// schedule binds the session to gen's workload on first use and
// returns the shared schedule with the session's per-group records.
func (s *Session) schedule(gen *trace.Generator) (*schedule, []groupWarm, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sch != nil {
		if gen.Params() != s.params {
			return nil, nil, fmt.Errorf("sampling: session serves one workload; generator parameters differ")
		}
		return s.sch, s.warm, nil
	}
	sch, err := scheduleFor(gen, s.warmup, s.instructions, s.spec)
	if err != nil {
		return nil, nil, err
	}
	s.params, s.sch, s.warm = gen.Params(), sch, make([]groupWarm, len(sch.groups))
	return s.sch, s.warm, nil
}

// record walks gen through g's functional-warming window into w.
func (w *groupWarm) record(gen *trace.Generator, g *group) {
	if w.err = gen.Restore(g.snap); w.err != nil {
		return
	}
	w.tape = trace.Record(gen, g.funcWarm)
	w.end = gen.Snapshot()
}

// runCensus is the degenerate path when the budget covers every
// region: it runs the exact full-simulation sequence (prewarm, warmup,
// measure), so a Fraction of 1.0 reproduces the unsampled response bit
// for bit.
func runCensus(cfg sim.Config, gen *trace.Generator, warmup, instructions int64, spec Spec, numRegions int) (Result, error) {
	gen.Reset()
	cpu, err := sim.New(cfg, gen, nil)
	if err != nil {
		return Result{}, err
	}
	cpu.PrewarmMemory()
	st, err := cpu.RunWithWarmup(warmup, instructions)
	if err != nil {
		return Result{}, err
	}
	cycles := float64(st.Cycles)
	return Result{
		Estimator:            spec.Estimator,
		NumRegions:           numRegions,
		SampledRegions:       numRegions,
		CPI:                  cycles / float64(instructions),
		Cycles:               cycles,
		DetailedInstructions: warmup + instructions,
		Census:               true,
	}, nil
}

// measure detail-simulates the schedule's groups: per group, a fresh
// CPU is functionally prewarmed, functionally warmed by replaying the
// group's recorded window (recording it first if no run has), the
// generator is restored to the window's end, the CPU is detail-warmed,
// and each region's cycle count is read as one RunMore increment off
// the continuous pipeline.
func measure(cfg sim.Config, gen *trace.Generator, sch *schedule, warm []groupWarm, instructions int64) (map[int]float64, int64, int64, error) {
	cpi := make(map[int]float64, len(sch.regions))
	var detailed, funcWarm int64
	for gi := range sch.groups {
		g, w := &sch.groups[gi], &warm[gi]
		w.once.Do(func() { w.record(gen, g) })
		if w.err != nil {
			return nil, 0, 0, w.err
		}
		if err := gen.Restore(w.end); err != nil {
			return nil, 0, 0, err
		}
		cpu, err := sim.New(cfg, gen, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		cpu.PrewarmMemory()
		cpu.WarmTape(w.tape)
		funcWarm += w.tape.Len()
		if g.warmup > 0 {
			if _, err := cpu.RunMore(g.warmup); err != nil {
				return nil, 0, 0, fmt.Errorf("sampling: warmup before region %d: %w", g.first, err)
			}
			detailed += g.warmup
		}
		for r := g.first; r <= g.last; r++ {
			n := regionLen(r, sch.numRegions, sch.spec.RegionSize, instructions)
			st, err := cpu.RunMore(n)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("sampling: region %d: %w", r, err)
			}
			cpi[r] = float64(st.Cycles) / float64(n)
			detailed += n
		}
	}
	return cpi, detailed, funcWarm, nil
}

// Cost summarizes what a sampled run costs without simulating
// anything beyond the schedule's one-time functional passes; the
// frontier sweep uses it to account the speedup axis exactly.
type Cost struct {
	// PerRunDetailed is the detailed-instruction cost each design row
	// pays (warmup + measured regions; for a census, the full run).
	PerRunDetailed int64
	// PerRunFunctional is the functional-warming cost each design row
	// pays before its detailed work.
	PerRunFunctional int64
	// ScheduleFunctional is the one-time functional cost shared by all
	// rows of one workload x spec.
	ScheduleFunctional int64
	NumRegions         int
	SampledRegions     int
	Census             bool
}

// CostOf reports the sampling cost for one workload and window. It
// builds (or reuses) the memoized schedule, so a following Run pays no
// schedule pass; a Session still records each warming window on its
// first use.
func CostOf(p trace.Params, warmup, instructions int64, spec Spec) (Cost, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Cost{}, err
	}
	if warmup < 0 || instructions <= 0 {
		return Cost{}, fmt.Errorf("sampling: invalid warmup/measure counts (%d, %d)", warmup, instructions)
	}
	numRegions := regionCount(instructions, spec.RegionSize)
	if budgetFor(numRegions, spec.Fraction) >= numRegions {
		return Cost{
			PerRunDetailed: warmup + instructions,
			NumRegions:     numRegions,
			SampledRegions: numRegions,
			Census:         true,
		}, nil
	}
	gen, err := trace.NewGenerator(p)
	if err != nil {
		return Cost{}, err
	}
	sch, err := scheduleFor(gen, warmup, instructions, spec)
	if err != nil {
		return Cost{}, err
	}
	return Cost{
		PerRunDetailed:     sch.detailedPerRun(instructions),
		PerRunFunctional:   sch.funcWarmPerRun(),
		ScheduleFunctional: sch.functional,
		NumRegions:         numRegions,
		SampledRegions:     len(sch.regions),
	}, nil
}
