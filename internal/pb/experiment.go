package pb

import (
	"context"
	"fmt"
	"math"
	"sync"

	"pbsim/internal/runner"
)

// Factor describes one two-level experimental factor: a processor
// parameter, a compiler switch, or any other binary choice. Low and
// High are human-readable descriptions of the two settings (e.g.
// "8 entries" / "64 entries", or "2-level" / "perfect").
type Factor struct {
	Name string
	Low  string
	High string
}

// Dummy returns a placeholder factor for unused design columns. Its
// estimated effect measures experimental noise.
func Dummy(n int) Factor {
	return Factor{
		Name: fmt.Sprintf("Dummy Factor #%d", n),
		Low:  "-",
		High: "-",
	}
}

// Response evaluates one design row: given the level of every factor
// column it returns the measured response (in this paper, simulated
// execution time in cycles). Implementations must be safe for
// concurrent use.
//
// Response is the infallible form the one-at-a-time and
// full-factorial baselines take; PB experiments take a
// FallibleResponse, which can report per-row errors and observe
// cancellation instead of panicking.
type Response func(levels []Level) float64

// FallibleResponse is the fault-tolerant row evaluator: it receives
// the run's context (carrying cancellation and the per-attempt
// deadline) and may fail with an error, which the runner retries and,
// if retries are exhausted, aggregates into the experiment's error —
// never into a silent NaN in the effects.
type FallibleResponse func(ctx context.Context, levels []Level) (float64, error)

// Infallible adapts a fallible response for infallible-only analyses
// (the one-at-a-time and full-factorial baselines), which predate the
// error path. A Response has no way to report failure, so the adapter
// routes it through the error path out of band: a failed row yields
// NaN — poisoning any statistic derived from it rather than inventing
// a plausible value — and the first error is recorded and returned by
// errf once the analysis finishes. Callers must check errf() before
// trusting the results. The adapter is safe for concurrent rows.
func (f FallibleResponse) Infallible() (resp Response, errf func() error) {
	var mu sync.Mutex
	var first error
	resp = func(levels []Level) float64 {
		v, err := f(context.Background(), levels)
		if err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
			return math.NaN()
		}
		return v
	}
	errf = func() error {
		mu.Lock()
		defer mu.Unlock()
		return first
	}
	return resp, errf
}

// Options configures an experiment run.
type Options struct {
	// Foldover selects the 2X-run foldover design (the paper's
	// recommendation); without it the basic X-run design is used.
	Foldover bool
	// Runner tunes the row evaluation: parallelism, per-row timeout,
	// retries with capped backoff, checkpointing, fault injection, and
	// observation. The zero value is a plain parallel evaluation over
	// GOMAXPROCS workers.
	Runner runner.Config
}

// Result holds everything produced by one PB experiment on a single
// benchmark/response.
type Result struct {
	Design    *Design
	Factors   []Factor // padded with dummies to Design.Columns
	Responses []float64
	Effects   []float64 // raw effects, one per column
	Ranks     []int     // 1 = most significant, one per column
}

// RunCtx executes a full Plackett-Burman experiment: it builds the
// smallest design that can hold the factors, evaluates the response
// for every configuration row through the resilient runner, and
// computes effects and ranks. The factor list is padded with dummy
// factors up to the design column count.
func RunCtx(ctx context.Context, factors []Factor, response FallibleResponse, opts Options) (*Result, error) {
	design, err := New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return RunWithDesignCtx(ctx, design, factors, response, opts)
}

// RunWithDesignCtx is RunCtx with a caller-supplied design, allowing
// one design to be reused across benchmarks (as in Table 9, where the
// same X=44 foldover design drives all 13 workloads).
func RunWithDesignCtx(ctx context.Context, design *Design, factors []Factor, response FallibleResponse, opts Options) (*Result, error) {
	padded, err := pad(design, factors)
	if err != nil {
		return nil, err
	}
	responses, err := EvaluateRowsCtx(ctx, design, response, opts)
	if err != nil {
		return nil, err
	}
	return newResult(design, padded, responses)
}

// EvaluateRowsCtx evaluates every design row through the resilient
// runner: bounded parallelism, cancellation, per-row timeout, retry
// with backoff, panic recovery, and checkpointing per opts.Runner.
func EvaluateRowsCtx(ctx context.Context, design *Design, response FallibleResponse, opts Options) ([]float64, error) {
	task := func(ctx context.Context, i int) (float64, error) {
		return response(ctx, design.Row(i))
	}
	//pbcheck:ignore determinism runner.Evaluate's wall-clock reads feed latency metrics only; row values are bit-identical under Nop vs instrumented recorders (pinned by obs bit-identity tests)
	return runner.Evaluate(ctx, design.Runs(), task, opts.Runner)
}

// Suite runs the same design over several named responses (one per
// benchmark) and aggregates ranks, reproducing the full Table 9
// workflow including the sum-of-ranks ordering.
type Suite struct {
	Design     *Design
	Factors    []Factor
	Benchmarks []string
	Results    []*Result // one per benchmark, same order
	RankRows   [][]int   // [benchmark][factor]
	Sums       []int     // [factor]
	Order      []int     // factor indices by ascending sum
}

// RunSuiteCtx evaluates responses[bi] for every benchmark bi over a
// shared design built for the given factors. The context cancels the
// whole suite, and opts.Runner adds timeouts, retries, and
// checkpointing. Each benchmark's rows are checkpointed under a scope
// derived from its name, so one checkpoint file resumes the whole
// suite.
func RunSuiteCtx(ctx context.Context, factors []Factor, benchmarks []string, responses []FallibleResponse, opts Options) (*Suite, error) {
	design, err := New(len(factors), opts.Foldover)
	if err != nil {
		return nil, err
	}
	return RunSuiteWithDesignCtx(ctx, design, factors, benchmarks, responses, opts)
}

// RunSuiteWithDesignCtx is RunSuiteCtx with a caller-supplied design,
// the form the experiment harness uses so it can fingerprint the
// checkpoint before the first row runs. It evaluates every
// benchmark's rows, then assembles the suite with SuiteFromResponses.
func RunSuiteWithDesignCtx(ctx context.Context, design *Design, factors []Factor, benchmarks []string, responses []FallibleResponse, opts Options) (*Suite, error) {
	if _, err := checkSuite(design, factors, benchmarks, len(responses)); err != nil {
		return nil, err
	}
	vecs := make([][]float64, len(benchmarks))
	baseScope := opts.Runner.Scope
	for bi, resp := range responses {
		bopts := opts
		bopts.Runner.Scope = benchmarks[bi]
		if baseScope != "" {
			bopts.Runner.Scope = baseScope + "/" + benchmarks[bi]
		}
		vec, err := EvaluateRowsCtx(ctx, design, resp, bopts)
		if err != nil {
			return nil, fmt.Errorf("pb: benchmark %s: %w", benchmarks[bi], err)
		}
		vecs[bi] = vec
	}
	return SuiteFromResponses(design, factors, benchmarks, vecs)
}

// SuiteFromResponses assembles a Suite from response vectors — one
// dense vector of Design.Runs() values per benchmark: the effects,
// ranks, and sum-of-ranks ordering of every suite are computed here.
// RunSuiteWithDesignCtx feeds it the vectors it evaluated; the
// distributed execution split feeds it the vectors its workers
// (internal/runner/dist) produced and a merge proved complete and
// consistent.
func SuiteFromResponses(design *Design, factors []Factor, benchmarks []string, responses [][]float64) (*Suite, error) {
	padded, err := checkSuite(design, factors, benchmarks, len(responses))
	if err != nil {
		return nil, err
	}
	s := &Suite{
		Design:     design,
		Factors:    padded,
		Benchmarks: benchmarks,
		Results:    make([]*Result, len(benchmarks)),
		RankRows:   make([][]int, len(benchmarks)),
	}
	for bi, vec := range responses {
		if len(vec) != design.Runs() {
			return nil, fmt.Errorf("pb: benchmark %s has %d responses, design needs %d", benchmarks[bi], len(vec), design.Runs())
		}
		res, err := newResult(design, padded, vec)
		if err != nil {
			return nil, fmt.Errorf("pb: benchmark %s: %w", benchmarks[bi], err)
		}
		s.Results[bi] = res
		s.RankRows[bi] = res.Ranks
	}
	s.Sums = SumOfRanks(s.RankRows)
	s.Order = OrderBySum(s.Sums)
	return s, nil
}

// checkSuite rejects a malformed suite before any row is evaluated
// (one response per benchmark, at least one benchmark, no more
// factors than design columns) and returns the padded factor list.
func checkSuite(design *Design, factors []Factor, benchmarks []string, responses int) ([]Factor, error) {
	if len(benchmarks) != responses {
		return nil, fmt.Errorf("pb: %d benchmark names but %d responses", len(benchmarks), responses)
	}
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("pb: empty benchmark suite")
	}
	return pad(design, factors)
}

// pad returns the factor list padded with dummy factors up to the
// design's column count.
func pad(design *Design, factors []Factor) ([]Factor, error) {
	if len(factors) > design.Columns {
		return nil, fmt.Errorf("pb: %d factors exceed the design's %d columns", len(factors), design.Columns)
	}
	padded := make([]Factor, design.Columns)
	copy(padded, factors)
	for i := len(factors); i < design.Columns; i++ {
		padded[i] = Dummy(i - len(factors) + 1)
	}
	return padded, nil
}

// newResult computes the effects and ranks of one benchmark's
// responses.
func newResult(design *Design, padded []Factor, responses []float64) (*Result, error) {
	effects, err := Effects(design, responses)
	if err != nil {
		return nil, err
	}
	return &Result{
		Design:    design,
		Factors:   padded,
		Responses: responses,
		Effects:   effects,
		Ranks:     Ranks(effects),
	}, nil
}
