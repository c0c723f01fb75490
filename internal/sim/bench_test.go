package sim

import (
	"testing"

	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// warmBenchInstrs is the window each benchmark operation warms through.
const warmBenchInstrs = 10000

// warmBench warms a prewarmed default CPU through the same window once
// per operation — off the generator, restored to the window's start
// each time, or by replaying the window's tape, recorded outside the
// timed loop — and reports warmed instructions per second.
func warmBench(b *testing.B, replay bool) {
	for _, name := range []string{"gcc", "mcf"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := w.NewGenerator()
			if err != nil {
				b.Fatal(err)
			}
			gen.Skip(30000)
			start := gen.Snapshot()
			tape := trace.Record(gen, warmBenchInstrs)
			cpu, err := New(Default(), gen, nil)
			if err != nil {
				b.Fatal(err)
			}
			cpu.PrewarmMemory()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if replay {
					cpu.WarmTape(tape)
					continue
				}
				if err := gen.Restore(start); err != nil {
					b.Fatal(err)
				}
				cpu.WarmFunctional(warmBenchInstrs)
			}
			b.ReportMetric(float64(warmBenchInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkWarmFunctional measures functional warming straight off the
// generator: the path every design row took before tapes.
func BenchmarkWarmFunctional(b *testing.B) { warmBench(b, false) }

// BenchmarkWarmTape measures replaying a recorded window, the path
// every design row of a sampled suite takes.
func BenchmarkWarmTape(b *testing.B) { warmBench(b, true) }

// detailBenchInstrs is the window each detailed-simulation benchmark
// operation commits.
const detailBenchInstrs = 5000

// BenchmarkDetailed measures the detailed core: one prewarmed CPU per
// case commits the next detailBenchInstrs instructions each operation,
// and the benchmark reports committed instructions and simulated cycles
// per second. The memory-bound configuration (200-cycle first-chunk
// DRAM latency) is the case with the most idle cycles to skip.
func BenchmarkDetailed(b *testing.B) {
	memBound := Default()
	memBound.MemLatFirst = 200
	configs := []struct {
		name string
		cfg  Config
	}{{"default", Default()}, {"membound", memBound}}
	for _, name := range []string{"gcc", "mcf"} {
		for _, c := range configs {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				w, err := workload.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := w.NewGenerator()
				if err != nil {
					b.Fatal(err)
				}
				cpu, err := New(c.cfg, gen, nil)
				if err != nil {
					b.Fatal(err)
				}
				cpu.PrewarmMemory()
				if _, err := cpu.RunMore(detailBenchInstrs); err != nil {
					b.Fatal(err)
				}
				var cycles int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := cpu.RunMore(detailBenchInstrs)
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
				}
				secs := b.Elapsed().Seconds()
				b.ReportMetric(float64(detailBenchInstrs)*float64(b.N)/secs, "instrs/s")
				b.ReportMetric(float64(cycles)/secs, "cycles/s")
			})
		}
	}
}
