package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"pbsim/internal/enhance"
	"pbsim/internal/sim"
	"pbsim/internal/sim/bpred"
	"pbsim/internal/sim/cache"
	"pbsim/internal/trace"
)

// Layer probes time single layers through their public functions on a
// fixed, seed-chosen sample of the workload's (benchmark, row) pairs.
// They run after the traced iterations, so they never perturb a
// measured wall time.

const (
	probeRows   = 6      // sampled (benchmark, row) pairs per traced run
	probeStream = 200000 // instructions per generator/cache/predictor probe
	probeReps   = 3      // repetitions per timing; the median is kept
)

type probePick struct{ b, r int }

// probeSample chooses the probed pairs from the seed alone.
func probeSample(st *simSetup) []probePick {
	rng := trace.NewRNG(mix64(st.seed ^ 0x70726F6265))
	picks := make([]probePick, probeRows)
	for i := range picks {
		picks[i] = probePick{b: rng.Intn(len(st.ws)), r: rng.Intn(st.design.Runs())}
	}
	return picks
}

// probeSet accumulates per-pick measurements; each metric is the
// median over picks.
type probeSet map[string][]float64

func (p probeSet) add(name string, v float64) { p[name] = append(p[name], v) }

func (p probeSet) medians() map[string]float64 {
	out := make(map[string]float64, len(p))
	for k, v := range p {
		out[k] = median(v)
	}
	return out
}

// timed returns the median duration of reps runs of f; prep runs
// untimed before each.
func timed(reps int, prep func(), f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// hierarchyFor mirrors the simulator's (unexported) mapping from
// processor parameters to its memory hierarchy, so the cache layer can
// be probed through cache.NewHierarchy alone.
func hierarchyFor(c sim.Config) cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1I:        cache.Config{SizeBytes: c.L1ISizeKB << 10, Assoc: c.L1IAssoc, BlockBytes: c.L1IBlock, Policy: cache.LRU},
		L1D:        cache.Config{SizeBytes: c.L1DSizeKB << 10, Assoc: c.L1DAssoc, BlockBytes: c.L1DBlock, Policy: cache.LRU},
		L2:         cache.Config{SizeBytes: c.L2SizeKB << 10, Assoc: c.L2Assoc, BlockBytes: c.L2Block, Policy: cache.LRU},
		L1ILatency: c.L1ILat, L1DLatency: c.L1DLat, L2Latency: c.L2Lat,
		ITLBEntries: c.ITLBEntries, ITLBAssoc: c.ITLBAssoc,
		DTLBEntries: c.DTLBEntries, DTLBAssoc: c.DTLBAssoc,
		PageBytes:   uint64(c.PageKB) << 10,
		ITLBLatency: c.ITLBLat, DTLBLatency: c.ITLBLat,
		MemLatencyFirst: c.MemLatFirst, MemLatencyRest: c.MemLatRest(),
		MemBandwidthBytes: c.MemBWBytes,
	}
}

// digest folds simulated statistics into a 52-bit integer, exact in a
// JSON number: it changes if and only if some simulated count does.
type digest struct{ h uint64 }

func (d *digest) add(s sim.Stats) {
	f := fnv.New64a()
	fmt.Fprintf(f, "%x|%+v", d.h, s)
	d.h = f.Sum64()
}

func (d *digest) value() float64 { return float64(d.h >> 12) }

// runProbes measures the sim, cache, bpred, trace and (pb-full) enhance
// layers on the sampled pairs.
func runProbes(st *simSetup, sampled bool) (map[string]float64, error) {
	ps := probeSet{}
	var dg digest
	// Simulated rates pool every pick's events, so a pick whose
	// structure never misses cannot zero the figure.
	var l1dAcc, l2Acc, mispred cache.Stats
	for _, pk := range probeSample(st) {
		w := st.ws[pk.b]
		cfg := sim.ConfigForLevels(st.design.Row(pk.r))
		gen, err := w.NewGenerator()
		if err != nil {
			return nil, err
		}

		// sim: construction, memory prewarm, detailed and functional
		// instruction costs, through the same calls a row makes.
		var cpu *sim.CPU
		newT := timed(probeReps, gen.Reset, func() { cpu, err = sim.New(cfg, gen, nil) })
		if err != nil {
			return nil, err
		}
		ps.add("sim.new_us", float64(newT)/1e3)
		var pw time.Duration
		for i := 0; i < probeReps; i++ {
			gen.Reset()
			if cpu, err = sim.New(cfg, gen, nil); err != nil {
				return nil, err
			}
			t0 := time.Now()
			cpu.PrewarmMemory()
			if d := time.Since(t0); i == 0 || d < pw {
				pw = d
			}
		}
		ps.add("sim.prewarm_us", float64(pw)/1e3)
		t0 := time.Now()
		stats, err := cpu.RunWithWarmup(st.win.warmup, st.win.n)
		if err != nil {
			return nil, err
		}
		ps.add("sim.detail_ns_per_instr", float64(time.Since(t0))/float64(st.win.warmup+st.win.n))
		dg.add(stats)
		const fw = 24000
		gen.Reset()
		if cpu, err = sim.New(cfg, gen, nil); err != nil {
			return nil, err
		}
		cpu.PrewarmMemory()
		t1 := time.Now()
		cpu.WarmFunctional(fw)
		ps.add("sim.funcwarm_ns_per_instr", float64(time.Since(t1))/fw)
		more, err := cpu.RunMore(2500)
		if err != nil {
			return nil, err
		}
		dg.add(more)

		// trace: per-instruction generation and skip, snapshot restore.
		gen.Reset()
		ps.add("trace.next_ns", float64(timed(probeReps, gen.Reset, func() {
			for i := 0; i < probeStream; i++ {
				gen.Next()
			}
		}))/probeStream)
		ps.add("trace.skip_ns", float64(timed(probeReps, gen.Reset, func() { gen.Skip(probeStream) }))/probeStream)
		gen.Reset()
		gen.Skip(st.win.warmup)
		snap := gen.Snapshot()
		const restores = 200
		ps.add("trace.restore_us", float64(timed(probeReps, nil, func() {
			for i := 0; i < restores; i++ {
				err = gen.Restore(snap)
			}
		}))/restores/1e3)
		if err != nil {
			return nil, err
		}

		// The probe stream: one pass of the generator, split by class.
		gen.Reset()
		var mem []uint64
		var ctl []trace.Instr
		for i := 0; i < probeStream; i++ {
			in := gen.Next()
			if in.Class.IsMem() {
				mem = append(mem, in.Addr)
			} else if in.Class.IsControl() {
				ctl = append(ctl, in)
			}
		}

		// cache: prewarm walk and data accesses on the row's hierarchy.
		hc := hierarchyFor(cfg)
		var h *cache.Hierarchy
		prewarm := timed(probeReps, func() { h, err = cache.NewHierarchy(hc) }, func() {
			h.PrewarmData(trace.DataBase, w.Params.WorkingSetBytes)
		})
		if err != nil {
			return nil, err
		}
		blocks := float64(w.Params.WorkingSetBytes) / float64(cfg.L1DBlock)
		ps.add("cache.prewarm_ns_per_block", float64(prewarm)/blocks)
		var l1d, l2 cache.Stats
		access := timed(probeReps, func() {
			h, err = cache.NewHierarchy(hc)
			if err == nil {
				h.PrewarmData(trace.DataBase, w.Params.WorkingSetBytes)
			}
		}, func() {
			cycle := int64(0)
			for _, a := range mem {
				cycle += h.DataAccess(a, cycle)
			}
			l1d, l2 = h.L1D.Stats(), h.L2.Stats()
		})
		if err != nil {
			return nil, err
		}
		ps.add("cache.access_ns", float64(access)/float64(len(mem)))
		l1dAcc.Accesses, l1dAcc.Misses = l1dAcc.Accesses+l1d.Accesses, l1dAcc.Misses+l1d.Misses
		l2Acc.Accesses, l2Acc.Misses = l2Acc.Accesses+l2.Accesses, l2Acc.Misses+l2.Misses

		// bpred: direction predictor plus BTB and RAS, predict then
		// update, over the stream's control instructions.
		var miss int
		upd := timed(probeReps, nil, func() { miss, err = predictStream(cfg, ctl) })
		if err != nil {
			return nil, err
		}
		ps.add("bpred.update_ns", float64(upd)/float64(len(ctl)))
		mispred.Accesses += uint64(len(ctl))
		mispred.Misses += uint64(miss)

		if !sampled {
			freq, err := enhance.Profile(w.Params, st.win.warmup+st.win.n)
			if err != nil {
				return nil, err
			}
			pc, err := enhance.NewPrecomputation(freq, precompTable)
			if err != nil {
				return nil, err
			}
			gen.Reset()
			if cpu, err = sim.New(cfg, gen, pc); err != nil {
				return nil, err
			}
			cpu.PrewarmMemory()
			s, err := cpu.RunWithWarmup(st.win.warmup, st.win.n)
			if err != nil {
				return nil, err
			}
			dg.add(s)
			ps.add("enhance.hit_rate", pc.HitRate())
		}
	}
	out := ps.medians()
	out["sim.stats_digest"] = dg.value()
	out["cache.l1d_miss_rate"] = l1dAcc.MissRate()
	out["cache.l2_miss_rate"] = l2Acc.MissRate()
	out["bpred.mispredict_rate"] = mispred.MissRate()
	return out, nil
}

// predictStream replays control instructions through a fresh predictor
// of the configuration's kind, mirroring the simulator's predict-then-
// update order, and returns the number of mispredictions.
func predictStream(cfg sim.Config, ctl []trace.Instr) (int, error) {
	var dir bpred.DirectionPredictor
	var err error
	switch cfg.Predictor {
	case sim.PredBimodal:
		dir, err = bpred.NewBimodal(12)
	case sim.PredAlwaysTaken:
		dir = bpred.Taken{}
	default: // the perfect predictor has no state; probe the 2-level one
		dir, err = bpred.NewTwoLevel(8, 12)
	}
	if err != nil {
		return 0, err
	}
	btb, err := bpred.NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return 0, err
	}
	ras, err := bpred.NewRAS(cfg.RASEntries)
	if err != nil {
		return 0, err
	}
	miss := 0
	for _, in := range ctl {
		wrong := false
		switch in.Class {
		case trace.Branch:
			taken := dir.Predict(in.PC)
			btbWrong := false
			if taken {
				tgt, hit := btb.Lookup(in.PC)
				if !hit {
					taken, btbWrong = false, in.Taken
				} else {
					btbWrong = in.Taken && tgt != in.Target
				}
			}
			wrong = taken != in.Taken || btbWrong
			dir.Update(in.PC, in.Taken)
			if in.Taken {
				btb.Insert(in.PC, in.Target)
			}
		case trace.Call:
			tgt, hit := btb.Lookup(in.PC)
			wrong = !hit || tgt != in.Target
			ras.Push(in.Addr)
			btb.Insert(in.PC, in.Target)
		case trace.Return:
			tgt, ok := ras.Pop()
			wrong = !ok || tgt != in.Target
		}
		if wrong {
			miss++
		}
	}
	if len(ctl) == 0 {
		return 0, fmt.Errorf("probe stream has no control instructions")
	}
	return miss, nil
}
