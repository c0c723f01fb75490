package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"pbsim/internal/pb"
	"pbsim/internal/stats"
)

// measureSim is the measuring process of pb-full and pb-sampled.
func measureSim(o options) (childReport, error) {
	rep := childReport{Metrics: map[string]float64{}}
	t0 := time.Now()
	st, err := setupSim(o.workload, o.seed)
	if err != nil {
		return rep, err
	}
	rep.SetupS = time.Since(t0).Seconds()
	var ref *reference
	if o.seed == committedSeed {
		ref, err = loadReference(o.dir, o.workload)
	} else {
		ref = &reference{}
		err = readJSON(o.ref, ref)
	}
	if err != nil {
		return rep, err
	}
	if ref.Seed != o.seed || ref.N != st.win.n || ref.Warmup != st.win.warmup || len(ref.Base) != len(st.ws) {
		return rep, fmt.Errorf("reference is for seed %d window %d/%d, not seed %d window %d/%d",
			ref.Seed, ref.Warmup, ref.N, o.seed, st.win.warmup, st.win.n)
	}

	ctx := context.Background()
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	// Untraced iterations count outcomes only; traced ones also keep
	// the row timeline.
	plain, recTraced := &runRecorder{}, &runRecorder{tr: tr}
	var roots []int
	var firstText string
	var lastSampled, lastBase *pb.Suite
	sampled := o.workload == wlSampled

	// check scores one iteration's outputs against the reference.
	check := func(s1, s2 *pb.Suite, text string) {
		rows := st.design.Runs() * len(st.ws)
		if sampled {
			rep.Attempted += rows
			for _, r := range s1.Results {
				for _, v := range r.Responses {
					if !finite(v) {
						rep.Failed++
					}
				}
			}
			if lastSampled != nil {
				rep.Failed += countMismatches(s1, responsesOf(lastSampled))
			}
			lastSampled = s1
		} else {
			rep.Attempted += 2 * rows
			lastBase = s1
			rep.Failed += countMismatches(s1, ref.Base) + countMismatches(s2, ref.Enhanced)
		}
		// The rendered tables: pinned for the committed seed, and
		// identical across iterations for any seed.
		rep.Attempted++
		switch {
		case !sampled && ref.Tables != "" && text != ref.Tables:
			rep.Failed++
			fmt.Fprintf(os.Stderr, "repobench: rendered tables differ from ref/%s.tables.txt\n", wlFull)
		case firstText != "" && text != firstText:
			rep.Failed++
			fmt.Fprintln(os.Stderr, "repobench: rendered tables differ between iterations")
		}
		if firstText == "" {
			firstText = text
		}
	}

	// iteration runs the workload once and checks its outputs.
	iteration := func(tr *tracer) (float64, error) {
		root, done := tr.open(-1, "bench", o.workload)
		defer done()
		if tr != nil {
			roots = append(roots, root)
		}
		t0 := time.Now()
		var s1, s2 *pb.Suite
		var text string
		var err error
		rec := plain
		if tr != nil {
			rec = recTraced
		}
		if sampled {
			var out *sampledOut
			if out, err = runSampled(ctx, st, rec, tr, root); err == nil {
				s1, text = out.suite, out.text
				if tr != nil {
					rep.Metrics["report.analysis_ms"] = float64(out.report) / 1e6
				}
			}
		} else {
			var out *fullOut
			if out, err = runFull(ctx, st, rec, tr, root); err == nil {
				s1, s2, text = out.base, out.enh, out.text
				if tr != nil {
					rep.Metrics["enhance.profile_ms"] = float64(out.profile) / 1e6
					rep.Metrics["enhance.suite_ratio"] = float64(out.enhWall) / float64(out.baseWall)
					rep.Metrics["report.analysis_ms"] = float64(out.report) / 1e6
				}
			}
		}
		wall := time.Since(t0).Seconds()
		if err != nil {
			// The suite gives no rows back: count every row it was
			// to produce, and the tables, as failed.
			rows := st.design.Runs() * len(st.ws)
			if !sampled {
				rows *= 2
			}
			rep.Attempted += rows + 1
			rep.Failed += rows + 1
			fmt.Fprintf(os.Stderr, "repobench: %s iteration failed: %v\n", o.workload, err)
			return wall, nil
		}
		check(s1, s2, text)
		return wall, nil
	}

	lt, err := measureLoop(o.seconds, 1, tr, iteration)
	if err != nil {
		return rep, err
	}

	if sampled && lastSampled != nil {
		// The traced run needs only selection 0, for the sampling
		// layer's per-row figures.
		selections := accSelections
		if tr != nil {
			selections = 1
		}
		var runs []runResult
		t0 := time.Now()
		tr.do(-1, "bench", "direct sampling.Run", func(root int) {
			tr.do(root, "sampling", "accuracy pass", func(int) { runs, err = sampledRuns(st, accuracyJobs(st, selections)) })
		})
		if err != nil {
			return rep, err
		}
		if err := scoreSampled(st, ref, lastSampled, runs, &rep, tr != nil); err != nil {
			return rep, err
		}
		fmt.Fprintf(os.Stderr, "repobench: accuracy pass (%d direct runs, untimed) took %.1fs\n", len(runs), time.Since(t0).Seconds())
	} else if !sampled && lastBase != nil && tr == nil {
		// Only the untraced run reports accuracy; the last iteration's
		// base suite was checked row by row against the reference.
		rho, err := paperRankRho(lastBase)
		if err != nil {
			return rep, err
		}
		rep.Metrics["paper_rank_rho"] = rho
	}

	if tr == nil {
		rep.Metrics["wall_s"] = median(lt.walls)
		rep.Metrics["ok_frac"] = 1 - float64(rep.Failed)/float64(rep.Attempted)
		fmt.Fprintf(os.Stderr, "repobench: %s iterations (s): %v\n", o.workload, lt.walls)
		return rep, nil
	}
	var suiteWall float64
	for _, w := range lt.traced {
		suiteWall += w
	}
	runnerMetrics(recTraced, time.Duration(suiteWall*float64(time.Second)), rep.Metrics)
	rep.Metrics["trace.compile_ms"] = float64(st.compile) / 1e6
	if sampled {
		rep.Metrics["sampling.schedule_ms"] = float64(st.sched) / 1e6
	}
	var probes map[string]float64
	tr.do(-1, "bench", "probes", func(int) { probes, err = runProbes(st, sampled) })
	if err != nil {
		return rep, err
	}
	for k, v := range probes {
		rep.Metrics[k] = v
	}
	rowSplit(st, rep.Metrics, sampled)
	return rep, layerReport(o, tr, roots, lt.untraced, lt.traced)
}

// rowSplit estimates where a row's host time goes from the probe
// timings and prints it beside the measured row time. The phases are
// the calls a row makes: sim.New and PrewarmMemory once per row (full)
// or per region group (sampled), WarmFunctional, detailed simulation.
func rowSplit(st *simSetup, m map[string]float64, sampled bool) {
	newMs, prewarmMs := m["sim.new_us"]/1e3, m["sim.prewarm_us"]/1e3
	detailMs := m["sim.detail_ns_per_instr"] * float64(st.win.warmup+st.win.n) / 1e6
	funcMs, measured := 0.0, m["runner.row_ms_p50"]
	groups := 1.0
	if sampled {
		groups = m["sampling.regions_per_row"]
		detailMs = m["sim.detail_ns_per_instr"] * m["sampling.detailed_instr_per_row"] / 1e6
		funcMs = m["sim.funcwarm_ns_per_instr"] * m["sampling.functional_instr_per_row"] / 1e6
		measured = m["sampling.row_ms"]
	}
	parts := map[string]float64{
		"sim.New":          groups * newMs,
		"PrewarmMemory":    groups * prewarmMs,
		"WarmFunctional":   funcMs,
		"detailed (runTo)": detailMs,
	}
	total := 0.0
	for _, v := range parts {
		total += v
	}
	shares := map[string]float64{}
	for k, v := range parts {
		shares[k] = v / total
	}
	fmt.Fprintf(os.Stderr, "repobench: estimated split of one row from the probes (%.2f ms estimated, %.2f ms measured median row):\n%s",
		total, measured, formatShares(shares, "of the row"))
}

// responsesOf extracts a suite's per-row responses.
func responsesOf(s *pb.Suite) [][]float64 {
	out := make([][]float64, len(s.Results))
	for b, r := range s.Results {
		out[b] = r.Responses
	}
	return out
}

// scoreSampled judges the sampled suite against the full reference and
// the direct runs of the accuracy pass.
func scoreSampled(st *simSetup, ref *reference, s *pb.Suite, runs []runResult, rep *childReport, traced bool) error {
	var iv []interval
	var detailed, functional, regions float64
	var rowMs []float64
	n := float64(st.win.n)
	for _, rr := range runs {
		rep.Attempted++
		// Selection 0 is the suite's own: it must reproduce the row.
		if rr.err != nil || (rr.sel == 0 && !stats.ApproxEqual(rr.res.Cycles, s.Results[rr.b].Responses[rr.r], 0)) {
			rep.Failed++
			continue
		}
		iv = append(iv, interval{estimate: rr.res.CPI, half: rr.res.CIHalf, reference: ref.Base[rr.b][rr.r] / n})
		if rr.sel == 0 {
			detailed += float64(rr.res.DetailedInstructions)
			functional += float64(rr.res.FunctionalInstructions)
			regions += float64(rr.res.SampledRegions)
			rowMs = append(rowMs, float64(rr.wall)/1e6)
		}
	}
	if len(iv) == 0 {
		return fmt.Errorf("no sampled row succeeded")
	}
	if traced {
		cnt := float64(len(rowMs))
		rep.Metrics["sampling.row_ms"] = median(rowMs)
		rep.Metrics["sampling.detailed_instr_per_row"] = detailed / cnt
		rep.Metrics["sampling.functional_instr_per_row"] = functional / cnt
		rep.Metrics["sampling.regions_per_row"] = regions / cnt
		return nil
	}
	rho, err := rankRho(s.Sums, ref.Sums)
	if err != nil {
		return err
	}
	var full, sampledDetail float64
	for b, c := range st.costs {
		full += float64(len(s.Results[b].Responses)) * float64(st.win.warmup+st.win.n)
		sampledDetail += float64(len(s.Results[b].Responses)) * float64(c.PerRunDetailed)
	}
	rep.Metrics["rank_spearman"] = rho
	rep.Metrics["cpi_err_mean_pct"] = relErrMeanPct(iv)
	rep.Metrics["ci_coverage"] = ciCoverage(iv)
	rep.Metrics["ci_half_mean_pct"] = ciHalfMeanPct(iv)
	rep.Metrics["instr_reduction"] = full / sampledDetail
	return nil
}

// measureCheck is the measuring process of pbcheck-repo.
func measureCheck(o options) (childReport, error) {
	rep := childReport{Metrics: map[string]float64{}}
	want, err := packageDirs(o.corpus)
	if err != nil {
		return rep, err
	}
	t0 := time.Now()
	cs, err := setupCheck(o.corpus)
	if err != nil {
		return rep, err
	}
	rep.SetupS = time.Since(t0).Seconds()
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	var first []byte
	var roots []int
	var last *checkOut
	sweep := func(tr *tracer) (float64, error) {
		root, done := tr.open(-1, "bench", o.workload)
		defer done()
		if tr != nil {
			roots = append(roots, root)
		}
		t0 := time.Now()
		out, err := runCheck(cs, tr, root)
		wall := time.Since(t0).Seconds()
		rep.Attempted += want + 1
		if err != nil {
			rep.Failed += want + 1
			fmt.Fprintf(os.Stderr, "repobench: sweep failed: %v\n", err)
			return wall, nil
		}
		if out.packages != want {
			fmt.Fprintf(os.Stderr, "repobench: sweep loaded %d packages, corpus has %d\n", out.packages, want)
			rep.Failed += abs(want - out.packages)
		}
		if first == nil {
			first = out.report
		} else if !bytes.Equal(first, out.report) {
			fmt.Fprintln(os.Stderr, "repobench: sweep report differs from the run's first sweep")
			rep.Failed++
		}
		last = out
		return wall, nil
	}
	// Four sweeps at least: a median that one slow sweep cannot move,
	// and every run checks that sweeps repeat. A traced pair is already
	// two.
	minIters := 4
	if tr != nil {
		minIters = 1
	}
	lt, err := measureLoop(o.seconds, minIters, tr, sweep)
	if err != nil {
		return rep, err
	}
	if tr == nil {
		rep.Metrics["wall_s"] = median(lt.walls)
		rep.Metrics["ok_frac"] = 1 - float64(rep.Failed)/float64(rep.Attempted)
		fmt.Fprintf(os.Stderr, "repobench: %s sweeps (s): %v\n", o.workload, lt.walls)
		return rep, nil
	}
	if last != nil {
		rep.Metrics["pbcheck.load_s"] = last.load.Seconds()
		rep.Metrics["pbcheck.facts_ms"] = float64(last.stats.FactBuild-last.stats.PointsTo) / 1e6
		rep.Metrics["pbcheck.pointsto_ms"] = float64(last.stats.PointsTo) / 1e6
		rep.Metrics["pbcheck.rules_ms"] = float64(last.stats.RuleWall) / 1e6
		rep.Metrics["pbcheck.packages"] = float64(last.packages)
		rep.Metrics["pbcheck.findings"] = float64(last.findings)
	}
	return rep, layerReport(o, tr, roots, lt.untraced, lt.traced)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
