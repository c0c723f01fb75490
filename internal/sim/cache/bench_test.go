package cache

import (
	"fmt"
	"testing"
)

// BenchmarkPrewarm measures data-side prewarming of a fresh hierarchy
// per iteration, for an L1-resident footprint, a mid-size one and
// mcf's 6 MB, against the smallest and the largest L2 of the design.
// blocks/s counts L1 blocks of the footprint. Hierarchies are built in
// batches and flushed between uses, so neither allocation nor the
// timer's own cost lands inside the timed region.
func BenchmarkPrewarm(b *testing.B) {
	for _, l2 := range []int{256 << 10, 8 << 20} {
		for _, footprint := range []uint64{16 << 10, 768 << 10, 6 << 20} {
			cfg := testHierCfg()
			cfg.L1D = Config{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, Policy: LRU}
			cfg.L2 = Config{SizeBytes: l2, Assoc: 8, BlockBytes: 64, Policy: LRU}
			name := fmt.Sprintf("L2=%dKB/footprint=%dKB", l2>>10, footprint>>10)
			b.Run(name, func(b *testing.B) {
				var batch [8]*Hierarchy
				for i := range batch {
					var err error
					if batch[i], err = NewHierarchy(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h := batch[i%len(batch)]
					if i >= len(batch) && i%len(batch) == 0 {
						b.StopTimer()
						for _, h := range batch {
							h.L1D.Flush()
							h.L2.Flush()
							h.DTLB.Flush()
						}
						b.StartTimer()
					}
					h.PrewarmData(1<<32, footprint)
				}
				blocks := footprint / uint64(cfg.L1D.BlockBytes)
				b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
			})
		}
	}
}
