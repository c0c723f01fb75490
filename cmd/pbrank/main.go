// Command pbrank reproduces Table 9 of the paper: it runs the X=44
// foldover Plackett-Burman design (88 processor configurations) over
// the 13-benchmark synthetic suite, ranks every parameter per
// benchmark by the magnitude of its effect on execution time, and
// sorts the parameters by their sum of ranks.
//
// The suite is fault tolerant: -timeout bounds each configuration,
// -retries re-runs failed configurations with capped backoff, and
// -checkpoint journals completed configurations to a JSONL file so an
// interrupted run (Ctrl-C included) resumes exactly where it stopped.
//
// Observability: -metrics journals run events to a JSONL file keyed
// by the experiment fingerprint, -progress prints live progress lines
// and an end-of-run summary (rows/s, latency quantiles, retry and
// fault totals, resumed vs simulated rows), and -debug-addr serves
// expvar and pprof while the campaign runs.
//
// Usage:
//
//	pbrank [-n 100000] [-warmup 30000] [-benchmarks gzip,mcf,...]
//	       [-timeout 0] [-retries 0] [-checkpoint suite.jsonl]
//	       [-workers 4] [-shard-dir campaign/] [-shard-sync]
//	       [-sample uniform] [-sample-region 1000] [-sample-frac 0.1]
//	       [-sample-warmup -1] [-sample-func-warmup -1] [-sample-seed 1]
//	       [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//	       [-compare] [-gap]
//
// Sampled mode (-sample) replaces each full measurement with a
// region-sampled estimate (internal/sampling): every configuration
// detail-simulates only a seeded, deterministic subset of the measured
// window, cutting detailed instructions by roughly 1/-sample-frac
// while preserving the Table 9 ordering (the pbfrontier tool gates
// exactly that). The sampling spec is part of the experiment
// fingerprint and of distributed campaign manifests, so checkpoints
// never mix sampled and full rows and pbworker processes reconstruct
// the identical schedule.
//
// Distributed mode (-workers / -shard-dir) runs the campaign through
// the crash-safe execution layer: workers claim configuration ×
// benchmark units via lease files and commit to per-worker shard
// ledgers, so killed or crashed workers lose nothing committed, and
// rerunning with the same -shard-dir resumes. Point pbworker
// processes (other machines included, over a shared filesystem) at
// the same directory to scale out; the merged Table 9 is
// bit-identical to a sequential run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/obs"
	"pbsim/internal/paperdata"
	"pbsim/internal/pb"
	"pbsim/internal/report"
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
	"pbsim/internal/sampling"
	"pbsim/internal/workload"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbrank", run()))
}

func run() (err error) {
	n := flag.Int64("n", experiment.DefaultInstructions, "instructions measured per configuration")
	warmup := flag.Int64("warmup", experiment.DefaultWarmup, "warmup instructions per configuration")
	benchList := flag.String("benchmarks", "", "comma-separated subset of benchmarks (default: all 13)")
	compare := flag.Bool("compare", false, "print the measured ordering next to the paper's Table 9 sums")
	gap := flag.Bool("gap", false, "report the significance gap (the paper's 'first ten parameters' cut)")
	pov := flag.Bool("pov", false, "print percent-of-variation dominance per benchmark (exposes what ranks hide)")
	stability := flag.Bool("stability", false, "print leave-one-benchmark-out stability of the ordering")
	par := flag.Int("par", 0, "parallel simulations (default GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-configuration timeout (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts for a failed configuration")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint file; an interrupted run resumes from it")
	verbose := flag.Bool("v", false, "log retries and checkpoint restores")
	csvRanks := flag.String("csv", "", "also write the rank matrix to this CSV file")
	csvRaw := flag.String("csv-raw", "", "also write raw per-configuration cycle counts to this CSV file")
	workers := flag.Int("workers", 0, "run the campaign through N crash-safe in-process workers (distributed mode)")
	shardDir := flag.String("shard-dir", "", "campaign directory for distributed mode; share it with pbworker processes to scale out, rerun with it to resume")
	shardSync := flag.Bool("shard-sync", false, "fsync shard ledgers after every commit in distributed mode")
	sampleFlags := sampling.RegisterFlags(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "pbrank")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	ws, err := selectWorkloads(*benchList)
	if err != nil {
		return obs.Usagef("%v", err)
	}
	sampleSpec, err := sampleFlags()
	if err != nil {
		return obs.Usagef("%v", err)
	}
	rec := sess.Recorder()
	if *verbose {
		rec = obs.Multi(rec, verboseRecorder{w: os.Stderr})
	}
	opts := experiment.Options{
		Instructions: *n,
		Warmup:       *warmup,
		Foldover:     true,
		Parallelism:  *par,
		Workloads:    ws,
		Timeout:      *timeout,
		Retries:      *retries,
		Checkpoint:   *checkpoint,
		Recorder:     rec,
		Sampling:     sampleSpec,
	}
	var suite *pb.Suite
	if *workers > 0 || *shardDir != "" {
		if *checkpoint != "" {
			return obs.Usagef("-checkpoint is the sequential resume path; distributed mode resumes from -shard-dir itself")
		}
		suite, err = runDistributed(ctx, opts, *workers, *shardDir, *shardSync)
	} else {
		suite, err = experiment.RunSuiteCtx(ctx, opts)
	}
	if err != nil {
		if runner.Cancelled(err) && *checkpoint != "" {
			return fmt.Errorf("%w (completed configurations are saved; rerun with -checkpoint %s to resume)", err, *checkpoint)
		}
		return err
	}
	title := fmt.Sprintf("Table 9: Plackett and Burman Design Results (X=%d foldover, %d configurations, %d instructions/run)",
		suite.Design.X, suite.Design.Runs(), *n)
	if sampleSpec != nil {
		title += fmt.Sprintf("\nsampled responses: %s", sampleSpec)
	}
	fmt.Println(report.RankTable(suite, title))
	if *compare {
		fmt.Println(report.RankTableWithPaper(suite, paperdata.Table9,
			"Measured ordering vs the paper's published Table 9"))
	}
	if *gap {
		cut := pb.SignificanceGap(suite.Sums)
		fmt.Printf("Significance gap after the top %d parameters (paper: 10).\n", cut)
	}
	if *pov {
		out, err := report.DominanceTable(suite, 5)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if *csvRanks != "" {
		if err := writeCSV(*csvRanks, suite, experiment.WriteRanksCSV); err != nil {
			return err
		}
	}
	if *csvRaw != "" {
		if err := writeCSV(*csvRaw, suite, experiment.WriteResponsesCSV); err != nil {
			return err
		}
	}
	if *stability {
		rep, err := methodology.Jackknife(suite)
		if err != nil {
			return err
		}
		fmt.Println("Leave-one-benchmark-out stability (position envelope per factor):")
		for _, fs := range rep.ByFullPosition() {
			fmt.Printf("  %2d. %-35s positions %d..%d (spread %d)\n",
				fs.FullPosition, fs.Factor.Name, fs.MinPosition, fs.MaxPosition, fs.Spread)
		}
	}
	return nil
}

// runDistributed executes the campaign through the crash-safe
// distributed layer (internal/runner/dist): N in-process workers
// claim (configuration × benchmark) units from the campaign
// directory via leases and commit to per-worker shard ledgers, then
// the merge proves the vectors complete and consistent and the suite
// is assembled from them — bit-identical to the sequential path.
// External pbworker processes pointed at the same -shard-dir join the
// same campaign; a killed run resumes by rerunning with the same
// flags and -shard-dir.
func runDistributed(ctx context.Context, opts experiment.Options, workers int, dir string, shardSync bool) (*pb.Suite, error) {
	if workers <= 0 {
		workers = 1
	}
	ephemeral := false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "pbrank-campaign-"); err != nil {
			return nil, err
		}
		ephemeral = true
		defer os.RemoveAll(dir) //pbcheck:ignore errdiscard best-effort cleanup of an ephemeral campaign dir
	}
	man, err := experiment.CampaignManifest(opts)
	if err != nil {
		return nil, err
	}
	c, err := dist.Create(dir, man)
	if err != nil {
		return nil, err
	}
	task, err := experiment.CampaignTask(opts, c.Manifest())
	if err != nil {
		return nil, err
	}
	host, herr := os.Hostname()
	if herr != nil {
		host = "pbrank"
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		//pbcheck:ignore leakygo worker goroutines terminate via ctx cancellation inside RunWorker and are joined by the errs receive loop below
		go func(w int) {
			_, err := dist.RunWorker(ctx, dir, task, dist.Config{
				ID:   fmt.Sprintf("%s-%d-w%d", host, os.Getpid(), w),
				Sync: shardSync,
				Runner: runner.Config{
					Timeout: opts.Timeout,
					Retries: opts.Retries,
				},
				Recorder: opts.Recorder,
			})
			errs <- err
		}(w)
	}
	var firstErr error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		if runner.Cancelled(firstErr) && !ephemeral {
			return nil, fmt.Errorf("%w (committed units are durable; rerun with -shard-dir %s to resume)", firstErr, dir)
		}
		return nil, firstErr
	}
	res, err := c.Merge(opts.Recorder)
	if err != nil {
		return nil, err
	}
	if !res.Complete() {
		return nil, fmt.Errorf("campaign incomplete: %d units missing; rerun with -shard-dir %s to resume", len(res.Missing), dir)
	}
	return experiment.SuiteFromMerge(opts, res)
}

// verboseRecorder prints the -v lines: every scheduled retry and
// every row restored from the checkpoint. It ignores all other events,
// simulated rows included.
type verboseRecorder struct {
	obs.Nop
	w io.Writer
}

func (v verboseRecorder) RowRetried(scope string, row, attempt int, delay time.Duration, err error) {
	fmt.Fprintf(v.w, "pbrank: retrying %s row %d (attempt %d, in %v): %v\n", scope, row, attempt, delay, err)
}

func (v verboseRecorder) RowFinished(scope string, row int, _ float64, _ time.Duration, _ int, fromCheckpoint bool) {
	if fromCheckpoint {
		fmt.Fprintf(v.w, "pbrank: %s row %d restored from checkpoint\n", scope, row)
	}
}

func selectWorkloads(list string) ([]workload.Workload, error) {
	if list == "" {
		return nil, nil // all
	}
	var ws []workload.Workload
	for _, name := range strings.Split(list, ",") {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// writeCSV writes one CSV view of the suite to a file.
func writeCSV(path string, suite *pb.Suite, fn func(w io.Writer, s *pb.Suite) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	//pbcheck:ignore errdiscard error-path cleanup only; the success path checks the Close below
	defer f.Close()
	if err := fn(f, suite); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return f.Close()
}
