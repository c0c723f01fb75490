// Enhancement: the paper's Section 4.3 post-simulation analysis.
//
// Instruction precomputation (a 128-entry table of the most frequent
// redundant computations, filled by an offline profiling pass and
// never updated) is added to the simulated processor. Instead of
// reporting only the speedup, a Plackett-Burman experiment before and
// after the enhancement shows *what the enhancement did to the
// processor*: which parameters gained or lost significance.
//
// Run with:
//
//	go run ./examples/enhancement
package main

import (
	"context"
	"fmt"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/methodology"
	"pbsim/internal/report"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func main() {
	const instructions, warmup = 20000, 10000
	var ws []workload.Workload
	for _, name := range []string{"gzip", "bzip2", "parser"} {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}

	// First, the conventional single-number view: the speedup.
	for _, w := range ws {
		base := runOnce(w, nil)
		freq, err := enhance.Profile(w.Params, warmup+instructions)
		if err != nil {
			panic(err)
		}
		table, err := enhance.NewPrecomputation(freq, 128)
		if err != nil {
			panic(err)
		}
		enh := runOnce(w, table)
		fmt.Printf("%-8s base %7d cycles, precomputed %7d cycles, speedup %.3fx (%d table hits)\n",
			w.Name, base.Cycles, enh.Cycles, float64(base.Cycles)/float64(enh.Cycles), enh.PrecompHits)
	}

	// Then the paper's whole-picture view: PB ranks before and after.
	opts := experiment.Options{
		Instructions: instructions,
		Warmup:       warmup,
		Foldover:     true,
		Workloads:    ws,
	}
	before, err := experiment.RunSuiteCtx(context.Background(), opts)
	if err != nil {
		panic(err)
	}
	opts.Shortcut = func(w workload.Workload) (sim.ComputeShortcut, error) {
		freq, err := enhance.Profile(w.Params, warmup+instructions)
		if err != nil {
			return nil, err
		}
		return enhance.NewPrecomputation(freq, 128)
	}
	after, err := experiment.RunSuiteCtx(context.Background(), opts)
	if err != nil {
		panic(err)
	}
	shifts, err := methodology.CompareEnhancement(before, after)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Println(report.ShiftTable(shifts[:12], "Top parameters: significance before vs after precomputation"))
	big, err := methodology.BiggestShift(shifts, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Biggest mover among the significant parameters: %s (%+d)\n", big.Factor.Name, big.Shift)
	fmt.Println("(The paper observes the integer-ALU parameter losing significance,")
	fmt.Println("since precomputation removes work precisely from the integer ALUs.)")
}

func runOnce(w workload.Workload, shortcut sim.ComputeShortcut) sim.Stats {
	gen, err := w.NewGenerator()
	if err != nil {
		panic(err)
	}
	cpu, err := sim.New(sim.Default(), gen, shortcut)
	if err != nil {
		panic(err)
	}
	cpu.PrewarmMemory()
	stats, err := cpu.RunWithWarmup(10000, 20000)
	if err != nil {
		panic(err)
	}
	return stats
}
