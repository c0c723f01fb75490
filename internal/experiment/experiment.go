// Package experiment wires the Plackett-Burman methodology (package
// pb) to the processor simulator (package sim) and the synthetic
// benchmark suite (package workload): it is the harness behind
// Tables 9-12 of the paper.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/pb"
	"pbsim/internal/runner"
	"pbsim/internal/sampling"
	"pbsim/internal/sim"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// DefaultInstructions is the per-run measured instruction budget used
// by the command-line tools when none is given. The paper ran each
// benchmark to completion (0.6-4 G instructions); the synthetic
// streams reach steady state within tens of thousands.
const DefaultInstructions = 100000

// DefaultWarmup is the per-run warmup budget: instructions simulated
// before measurement begins, so that cold-cache compulsory misses do
// not distort the factor effects.
const DefaultWarmup = 30000

// ShortcutFactory builds a fresh enhancement instance for one
// simulation run (runs execute concurrently, so state cannot be
// shared). A nil factory simulates the unenhanced processor.
type ShortcutFactory func(w workload.Workload) (sim.ComputeShortcut, error)

// Options configures a suite experiment.
type Options struct {
	// Instructions measured per simulation run.
	Instructions int64
	// Warmup instructions simulated before measurement; negative
	// selects DefaultWarmup, zero disables warmup.
	Warmup int64
	// Foldover selects the 2X-run design (the paper's X=44 foldover
	// design with 88 configurations).
	Foldover bool
	// Parallelism bounds concurrently simulated configurations
	// (GOMAXPROCS when 0).
	Parallelism int
	// Shortcut optionally enables an enhancement (Table 12).
	Shortcut ShortcutFactory
	// Sampling, when non-nil, replaces every row's full simulation with
	// a region-sampled one (see internal/sampling): the response becomes
	// the extrapolated cycle count. Mutually exclusive with Shortcut
	// (the enhancement's observation stream assumes a full run).
	Sampling *sampling.Spec
	// Workloads restricts the benchmark suite; nil selects all 13.
	Workloads []workload.Workload

	// Timeout bounds each configuration's simulation attempt; zero
	// disables the per-row deadline.
	Timeout time.Duration
	// Retries is the number of extra attempts a failed configuration
	// gets, paced by runner.DefaultBackoff, before the benchmark is
	// failed with an aggregate error.
	Retries int
	// Checkpoint, when non-empty, is the path of a JSONL journal of
	// completed configurations: an interrupted suite rerun with the
	// same options resumes exactly where it stopped and reproduces
	// identical effects and ranks.
	Checkpoint string
	// Label distinguishes experiment variants (e.g. the base and
	// enhanced suites of Table 12) that share one checkpoint file.
	// Empty means "base".
	Label string
	// Recorder, when non-nil, receives the full observability event
	// stream (suite/run lifecycle, per-attempt latency, retries,
	// checkpoint restores, worker occupancy) under row scopes
	// "label/benchmark". The suite announcement carries the same
	// fingerprint the checkpoint uses, so a metrics JSONL and a
	// checkpoint JSONL from one campaign join on it. Recording never
	// changes scheduling or results.
	Recorder obs.Recorder
}

// Response builds the pb.FallibleResponse for one workload: each
// design row is translated to a processor configuration, a fresh CPU
// simulates the workload's deterministic stream, and the simulated
// execution time in cycles is the response value. Failures are
// returned as errors carrying the benchmark name (the runner adds the
// row), never raised as panics.
func Response(w workload.Workload, warmup, instructions int64, shortcut ShortcutFactory) pb.FallibleResponse {
	// All rows of one benchmark replay the identical instruction
	// stream, so a Reset generator is indistinguishable from a fresh
	// one; pooling lets concurrent workers recycle the visit table and
	// RNG scratch across the design's 44-88 rows instead of
	// reallocating them per row.
	var gens sync.Pool
	return func(ctx context.Context, levels []pb.Level) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cfg := sim.ConfigForLevels(levels)
		gen, _ := gens.Get().(*trace.Generator)
		if gen == nil {
			var err error
			if gen, err = w.NewGenerator(); err != nil {
				return 0, fmt.Errorf("workload %s: %w", w.Name, err)
			}
		} else {
			gen.Reset()
		}
		defer gens.Put(gen)
		var err error
		var sc sim.ComputeShortcut
		if shortcut != nil {
			if sc, err = shortcut(w); err != nil {
				return 0, fmt.Errorf("shortcut for %s: %w", w.Name, err)
			}
		}
		cpu, err := sim.New(cfg, gen, sc)
		if err != nil {
			return 0, fmt.Errorf("config for %s: %w", w.Name, err)
		}
		cpu.PrewarmMemory()
		stats, err := cpu.RunWithWarmup(warmup, instructions)
		if err != nil {
			return 0, fmt.Errorf("run %s: %w", w.Name, err)
		}
		return float64(stats.Cycles), nil
	}
}

// SampledResponse is Response with region sampling: each design row
// runs the sampled simulation instead of the full one and reports the
// extrapolated cycle count. The spec must be normalized and valid. All
// rows of one workload share a memoized schedule, so the functional
// pre-passes are paid once, not per row, and one sampling.Session, so
// each region group's functional-warming window is recorded by the
// first row to reach it and replayed by every row.
func SampledResponse(w workload.Workload, warmup, instructions int64, spec sampling.Spec) pb.FallibleResponse {
	sess, sessErr := sampling.NewSession(warmup, instructions, spec)
	var gens sync.Pool
	return func(ctx context.Context, levels []pb.Level) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if sessErr != nil {
			return 0, fmt.Errorf("sampled run %s: %w", w.Name, sessErr)
		}
		cfg := sim.ConfigForLevels(levels)
		gen, _ := gens.Get().(*trace.Generator)
		if gen == nil {
			var err error
			if gen, err = w.NewGenerator(); err != nil {
				return 0, fmt.Errorf("workload %s: %w", w.Name, err)
			}
		}
		defer gens.Put(gen)
		res, err := sess.Run(cfg, gen)
		if err != nil {
			return 0, fmt.Errorf("sampled run %s: %w", w.Name, err)
		}
		return res.Cycles, nil
	}
}

// RunSuiteCtx executes the full PB experiment over the benchmark
// suite and returns per-benchmark ranks plus the sum-of-ranks
// ordering. The context cancels the whole experiment (all in-flight
// simulations drain before it returns), and the Options'
// Timeout/Retries/Checkpoint fields configure the resilient runner.
func RunSuiteCtx(ctx context.Context, opts Options) (*pb.Suite, error) {
	p, err := plan(opts)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// suitePlan is an Options resolved once for every entry point: budgets
// defaulted, the sampling spec normalized and validated, the workload
// list filled in, and the design built.
type suitePlan struct {
	opts    Options
	design  *pb.Design
	factors []pb.Factor
	ws      []workload.Workload
}

// plan resolves opts. The sequential, distributed and frontier entry
// points all go through it, so they agree on one fingerprint for the
// same options.
func plan(opts Options) (*suitePlan, error) {
	if opts.Instructions <= 0 {
		opts.Instructions = DefaultInstructions
	}
	if opts.Warmup < 0 {
		opts.Warmup = DefaultWarmup
	}
	if opts.Sampling != nil {
		if opts.Shortcut != nil {
			return nil, fmt.Errorf("experiment: sampling cannot be combined with an enhancement shortcut")
		}
		spec := opts.Sampling.Normalized()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		opts.Sampling = &spec
	}
	ws := opts.Workloads
	if ws == nil {
		ws = workload.All()
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("experiment: empty workload list")
	}
	factors := sim.Factors()
	design, err := pb.New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return &suitePlan{opts: opts, design: design, factors: factors, ws: ws}, nil
}

// response builds the row evaluator for one workload: sampled when
// the plan samples, full (with the optional shortcut) otherwise.
func (p *suitePlan) response(w workload.Workload) pb.FallibleResponse {
	if p.opts.Sampling != nil {
		return SampledResponse(w, p.opts.Warmup, p.opts.Instructions, *p.opts.Sampling)
	}
	return Response(w, p.opts.Warmup, p.opts.Instructions, p.opts.Shortcut)
}

// run evaluates the planned suite sequentially, checkpointing and
// recording per the options.
func (p *suitePlan) run(ctx context.Context) (suite *pb.Suite, err error) {
	pbOpts := pb.Options{
		Foldover: p.opts.Foldover,
		Runner: runner.Config{
			Parallelism: p.opts.Parallelism,
			Timeout:     p.opts.Timeout,
			Retries:     p.opts.Retries,
			Scope:       label(p.opts),
			Recorder:    p.opts.Recorder,
		},
	}
	if p.opts.Recorder != nil {
		p.opts.Recorder.SuiteStarted(Fingerprint(p.design, p.opts), len(p.ws), p.design.Runs())
	}
	if p.opts.Checkpoint != "" {
		cp, cpErr := runner.OpenCheckpoint(p.opts.Checkpoint, Fingerprint(p.design, p.opts))
		if cpErr != nil {
			return nil, fmt.Errorf("experiment: %w", cpErr)
		}
		// A failed checkpoint close means recorded rows may not be
		// durable; surface it rather than let a later resume silently
		// re-simulate (or worse, trust a truncated file).
		defer func() {
			if cerr := cp.Close(); cerr != nil && err == nil {
				suite, err = nil, fmt.Errorf("experiment: close checkpoint: %w", cerr)
			}
		}()
		pbOpts.Runner.Checkpoint = cp
	}
	names := make([]string, len(p.ws))
	responses := make([]pb.FallibleResponse, len(p.ws))
	for i, w := range p.ws {
		names[i] = w.Name
		responses[i] = p.response(w)
	}
	return pb.RunSuiteWithDesignCtx(ctx, p.design, p.factors, names, responses, pbOpts)
}

// Fingerprint identifies one experiment variant inside a checkpoint
// file: the design geometry plus every option that changes the
// simulated cycle counts. Rows checkpointed under a different
// fingerprint are ignored on resume, so restarting with different
// budgets (or with an enhancement toggled) can never splice stale
// responses into the effects.
func Fingerprint(design *pb.Design, opts Options) string {
	fp := fmt.Sprintf("%s|n=%d|warmup=%d|label=%s",
		design.Fingerprint(), opts.Instructions, opts.Warmup, label(opts))
	if opts.Sampling != nil {
		// The canonical spec string, so equivalent specs collide and any
		// change in sampling parameters invalidates checkpointed rows.
		fp += "|sample=" + opts.Sampling.String()
	}
	return fp
}

func label(opts Options) string {
	if opts.Label == "" {
		return "base"
	}
	return opts.Label
}
