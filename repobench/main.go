// Command repobench is the repository's benchmark. One invocation runs
// one named workload for a fixed time, checks its outputs against a
// reference, and prints every metric by name with its unit; the last
// line of standard output is a JSON object with the result. With
// --trace 1 it runs the traced variant instead and reports per-layer
// metrics. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash repobench/run.sh --workload pb-full --seed 1 --seconds 10 --trace 0
//	bash repobench/run.sh --regen        # rewrite the committed references
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many cold set-ups (fresh processes) setup_s is
// the median of.
const setupSamples = 5

// workDir holds everything a run writes, inside the checkout.
const workDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	dir      string
	child    string
	ref      string
	corpus   string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: pb-full, pb-sampled or pbcheck-repo")
	fs.Uint64Var(&o.seed, "seed", committedSeed, "input seed (the committed seed has pinned references)")
	fs.IntVar(&o.seconds, "seconds", 10, "measure for at least this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.dir, "dir", "repobench", "the benchmark's own directory")
	regen := fs.Bool("regen", false, "rewrite the committed references for the committed seed and exit")
	regenCorp := fs.Bool("regen-corpus", false, "rewrite the pinned pbcheck corpus from git and exit")
	fs.StringVar(&o.child, "child", "", "internal: measure or setup")
	fs.StringVar(&o.ref, "ref", "", "internal: reference file for a non-committed seed")
	fs.StringVar(&o.corpus, "corpus", "", "internal: extracted corpus directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *regen:
		err = regenerate(o.dir)
	case *regenCorp:
		err = regenCorpus(o.dir)
	case o.child == "measure":
		err = childMeasure(o)
	case o.child == "setup":
		err = childSetup(o)
	default:
		err = parent(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: error: %v\n", err)
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childReport is what the measuring process hands back.
type childReport struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func validate(o options) error {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	return nil
}

// parent prepares the inputs (reference or corpus, untimed), measures
// in a child process so its memory high-water mark is the workload's
// alone, takes set-up time as the median of cold set-ups in fresh
// processes, and prints the result.
func parent(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer func() {
		if err := os.RemoveAll(tmp); err != nil {
			fmt.Fprintf(os.Stderr, "repobench: cleaning %s: %v\n", tmp, err)
		}
	}()

	var childArgs []string
	switch o.workload {
	case wlCheck:
		root, err := extractCorpus(o.dir, tmp)
		if err != nil {
			// The sweep cannot run: report it as one failed attempt.
			fmt.Fprintf(os.Stderr, "repobench: error: %v\n", err)
			if err := printResult(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}); err != nil {
				return err
			}
			return errors.New("pbcheck-repo failed")
		}
		childArgs = append(childArgs, "--corpus", root)
	default:
		if o.seed != committedSeed {
			fmt.Fprintf(os.Stderr, "repobench: simulating the %s reference for seed %d (untimed)\n", o.workload, o.seed)
			t0 := time.Now()
			ref, err := computeReference(o.workload, o.seed)
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			p := filepath.Join(tmp, "ref.json")
			if err := writeJSON(p, ref); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "repobench: reference took %.1fs\n", time.Since(t0).Seconds())
			childArgs = append(childArgs, "--ref", p)
		}
	}

	t0 := time.Now()
	rep, rusage, err := spawn(o, "measure", childArgs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repobench: measuring process took %.1fs\n", time.Since(t0).Seconds())
	metrics := map[string]float64{}
	for k, v := range rep.Metrics {
		metrics[k] = v
	}
	if o.trace == 0 {
		setups := []float64{rep.SetupS}
		for len(setups) < setupSamples {
			s, _, err := spawn(o, "setup", childArgs)
			if err != nil {
				return err
			}
			setups = append(setups, s.SetupS)
		}
		metrics["setup_s"] = median(setups)
		metrics["peak_rss_mb"] = float64(rusage.Maxrss) / 1024
		fmt.Fprintf(os.Stderr, "repobench: cold set-ups (s): %v\n", setups)
	}
	catalog := endToEnd
	if o.trace == 1 {
		catalog = perLayer
	}
	res := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(os.Stderr, "repobench: %s seed %d: %d attempted, %d failed (failed_frac %.6f)\n",
		o.workload, o.seed, rep.Attempted, rep.Failed, float64(rep.Failed)/math.Max(1, float64(rep.Attempted)))
	for _, m := range catalog {
		v, ok := metrics[m.Name]
		note := ""
		if !ok {
			// The output format needs every declared metric in every
			// run; a metric of another workload reads notApplicable.
			v, note = notApplicable, "  (n/a: "+naReason(m.Name, o.workload)+")"
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Fprintf(os.Stderr, "  %-30s %16.6f %-6s%s\n", m.Name, v, m.Unit, note)
	}
	return printResult(res)
}

// notApplicable is the value a metric takes on a workload it does not
// describe: a fixed positive constant, so it never moves between runs.
const notApplicable = 1

func printResult(r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Println(string(data))
	return err
}

// spawn runs this executable in a child mode and returns its report
// and resource usage. The child's stderr passes through.
func spawn(o options, mode string, extra []string) (*childReport, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"--child", mode, "--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds),
		"--trace", strconv.Itoa(o.trace),
		"--dir", o.dir,
	}
	cmd := exec.Command(exe, append(args, extra...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return nil, nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, nil, errors.New("no resource usage for the child process")
	}
	return &rep, ru, nil
}

func emit(rep childReport) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// childSetup times one cold set-up.
func childSetup(o options) error {
	t0 := time.Now()
	var err error
	if o.workload == wlCheck {
		_, err = setupCheck(o.corpus)
	} else {
		_, err = setupSim(o.workload, o.seed)
	}
	if err != nil {
		return err
	}
	return emit(childReport{SetupS: time.Since(t0).Seconds()})
}

// childMeasure runs the workload's set-up and then its timed (or
// traced) iterations.
func childMeasure(o options) error {
	var rep childReport
	var err error
	switch o.workload {
	case wlCheck:
		rep, err = measureCheck(o)
	default:
		rep, err = measureSim(o)
	}
	if err != nil {
		return err
	}
	return emit(rep)
}

// loopTimes are the per-iteration wall times of a measurement loop.
type loopTimes struct {
	walls            []float64 // untraced run
	untraced, traced []float64 // traced run: one of each per pair
}

// measureLoop runs iterations until the time budget is spent, at least
// min times. With a tracer every iteration is a pair, one untraced and
// one traced, so the tracing overhead is measured under the same load.
// A collection before each iteration, untimed, keeps one iteration's
// garbage out of the next one's time and memory high-water mark.
func measureLoop(seconds, min int, tr *tracer, iter func(*tracer) (float64, error)) (loopTimes, error) {
	var lt loopTimes
	t0 := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		w, err := iter(nil)
		if err != nil {
			return lt, err
		}
		if tr == nil {
			lt.walls = append(lt.walls, w)
		} else {
			lt.untraced = append(lt.untraced, w)
			runtime.GC()
			if w, err = iter(tr); err != nil {
				return lt, err
			}
			lt.traced = append(lt.traced, w)
		}
		if i+1 >= min && time.Since(t0) >= time.Duration(seconds)*time.Second {
			return lt, nil
		}
	}
}

// layerReport prints a traced run's self times, blocking shares and
// overhead, and journals its spans.
func layerReport(o options, tr *tracer, roots []int, untraced, traced []float64) error {
	self := layerSelf(tr.spans, roots)
	secs := map[string]float64{}
	for k, v := range self {
		secs[k] = v.Seconds() / float64(len(roots))
	}
	shares := map[string]float64{}
	for _, r := range roots {
		for k, v := range blockingShares(tr.spans, r) {
			shares[k] += v / float64(len(roots))
		}
	}
	fmt.Fprintf(os.Stderr, "repobench: %s traced: self time per layer (s per traced iteration; rows overlap across workers):\n%s", o.workload, formatShares(secs, "s"))
	fmt.Fprintf(os.Stderr, "repobench: share of the iteration's blocking time per layer:\n%s", formatShares(shares, ""))
	over := median(traced) - median(untraced)
	fmt.Fprintf(os.Stderr, "repobench: tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s (%+.2f%%)\n",
		median(traced), median(untraced), over, 100*over/median(untraced))
	if err := os.MkdirAll(filepath.Join(workDir, "spans"), 0o755); err != nil {
		return err
	}
	p := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	var buf bytes.Buffer
	if err := writeSpans(&buf, tr.spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repobench: spans written to %s\n", p)
	return os.WriteFile(p, buf.Bytes(), 0o644)
}

// runnerMetrics derives the runner layer's metrics from the recorder.
func runnerMetrics(rec *runRecorder, suiteWall time.Duration, m map[string]float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if v, ok := percentile(rec.latencies, 0.5); ok {
		m["runner.row_ms_p50"] = v
	}
	if v, ok := percentile(rec.latencies, 0.99); ok {
		m["runner.row_ms_p99"] = v
	}
	m["runner.row_samples"] = float64(len(rec.latencies))
	if v, ok := percentile(rec.waits, 0.5); ok {
		m["runner.queue_wait_ms_p50"] = v
	}
	if suiteWall > 0 {
		m["runner.occupancy"] = float64(rec.busyArea) / (float64(timedWorkers) * float64(suiteWall))
	}
	if rec.rows > 0 {
		m["runner.attempts_per_row"] = float64(rec.attempts) / float64(rec.rows)
	}
}

// naReason says why a metric is absent from a workload.
func naReason(name, wl string) string {
	switch {
	case wl == wlCheck:
		return "pbcheck-repo runs no simulation"
	case strings.HasPrefix(name, "pbcheck."):
		return "only pbcheck-repo sweeps the corpus"
	case wl == wlFull && name == "paper_rank_rho":
		return "no iteration succeeded"
	case wl == wlFull:
		return "pb-full runs no sampling"
	case name == "paper_rank_rho":
		return "pb-sampled is judged against full simulation, not the paper"
	}
	return "pb-sampled runs no enhancement"
}
