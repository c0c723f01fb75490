package sim

import (
	"fmt"

	"pbsim/internal/sim/bpred"
	"pbsim/internal/sim/cache"
	"pbsim/internal/sim/pipeline"
	"pbsim/internal/trace"
)

// ComputeShortcut lets an enhancement bypass execution of arithmetic
// instructions whose result is already known: the mechanism behind
// instruction precomputation and value reuse (Section 4.3 of the
// paper). Hit is consulted at dispatch; Observe is called when a
// compute instruction commits, letting dynamic schemes train.
type ComputeShortcut interface {
	Hit(compID uint32) bool
	Observe(compID uint32)
}

// maxDepDistance is the largest register-dependency back-distance the
// trace generator emits; the readiness ring must cover the ROB plus
// this margin.
const maxDepDistance = 64

// fetched is one IFQ slot.
type fetched struct {
	instr      trace.Instr
	seq        int64
	mispredict bool
}

// CPU is one simulated processor instance bound to one instruction
// stream. Create a fresh CPU per run; it is not reusable or
// goroutine-safe.
type CPU struct {
	cfg  Config
	gen  *trace.Generator
	hier *cache.Hierarchy

	pred bpred.DirectionPredictor // nil when Predictor == PredPerfect
	btb  *bpred.BTB
	ras  *bpred.RAS

	intALU, intMD, fpALU, fpMD *pipeline.Pool

	rob *pipeline.ROB
	lsq *pipeline.LSQ

	// iq holds the dispatched, not yet issued ROB entries in age order
	// (precomputed entries never enter it); the issue scan walks only
	// these. Its backing array is preallocated at ROBEntries, and an
	// entry's pointer stays valid until it issues, because only issued
	// entries commit.
	iq []*pipeline.Entry
	// issueWake is the earliest cycle at which any entry of iq could
	// issue; issueStage does nothing before it. Waking early is safe,
	// waking late is not.
	issueWake int64
	// stepping disables the idle-cycle skip and the issue wake gate, so
	// every stage runs every cycle: the reference the event-driven
	// advance is tested against.
	stepping bool

	shortcut ComputeShortcut

	ifq     []fetched
	ifqHead int
	ifqLen  int

	// readyRing holds the result-ready cycle of recent instructions,
	// indexed by sequence number; sized to cover the ROB plus the
	// maximum dependency distance so a slot is never reused while an
	// in-flight instruction can still read it.
	readyRing []int64
	ringMask  int64

	seq       int64
	committed int64
	cycle     int64

	// pending buffers the next instruction by value: a pointer here
	// would force gen.Next's result to escape and cost one heap
	// allocation per fetched instruction.
	pending    trace.Instr
	pendingSet bool

	// stopAt caps retirement so runs end on exact instruction counts.
	stopAt int64

	fetchBlockedUntil int64
	haltSeq           int64 // seq of the in-flight mispredicted instr, -1 if none
	resumeAt          int64 // cycle fetch resumes after the halt, -1 until resolved
	redirectPending   bool
	lastFetchBlock    uint64

	stats Stats
}

// Stats aggregates one run's results.
type Stats struct {
	Cycles       int64
	Instructions int64
	// Control-flow statistics.
	ControlInstrs uint64
	Mispredicts   uint64
	// Misprediction causes, counted at prediction time: wrong
	// direction, missing/wrong BTB target, and wrong return-address
	// stack prediction.
	MispredDirection uint64
	MispredBTB       uint64
	MispredRAS       uint64
	// Loads and Stores counted at commit.
	Loads, Stores uint64
	// PrecompHits counts instructions satisfied by the compute
	// shortcut instead of a functional unit.
	PrecompHits uint64
	// Memory-system statistics.
	L1I, L1D, L2, ITLB, DTLB cache.Stats
	DRAMAccesses             uint64
	// Functional-unit issue counts.
	IntALUOps, IntMDOps, FPALUOps, FPMDOps uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns mispredicted control instructions per control
// instruction.
func (s Stats) MispredictRate() float64 {
	if s.ControlInstrs == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.ControlInstrs)
}

// New builds a CPU for the given configuration and instruction stream.
// shortcut may be nil (no enhancement).
func New(cfg Config, gen *trace.Generator, shortcut ComputeShortcut) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := cache.NewHierarchy(cfg.hierarchyConfig())
	if err != nil {
		return nil, err
	}
	ringSize := int64(2)
	for ringSize < int64(cfg.ROBEntries+maxDepDistance+1) {
		ringSize *= 2
	}
	c := &CPU{
		cfg:       cfg,
		gen:       gen,
		hier:      hier,
		shortcut:  shortcut,
		ifq:       make([]fetched, cfg.IFQEntries),
		iq:        make([]*pipeline.Entry, 0, cfg.ROBEntries),
		readyRing: make([]int64, ringSize),
		ringMask:  ringSize - 1,
		haltSeq:   -1,
		resumeAt:  -1,
	}
	switch cfg.Predictor {
	case PredPerfect:
		c.pred = nil
	case PredBimodal:
		if c.pred, err = bpred.NewBimodal(12); err != nil {
			return nil, err
		}
	case PredAlwaysTaken:
		c.pred = bpred.Taken{}
	default:
		if c.pred, err = bpred.NewTwoLevel(8, 12); err != nil {
			return nil, err
		}
	}
	if c.pred != nil {
		if c.btb, err = bpred.NewBTB(cfg.BTBEntries, cfg.BTBAssoc); err != nil {
			return nil, err
		}
		if c.ras, err = bpred.NewRAS(cfg.RASEntries); err != nil {
			return nil, err
		}
	}
	if c.intALU, err = pipeline.NewPool(cfg.IntALUs); err != nil {
		return nil, err
	}
	if c.intMD, err = pipeline.NewPool(cfg.IntMultDivs); err != nil {
		return nil, err
	}
	if c.fpALU, err = pipeline.NewPool(cfg.FPALUs); err != nil {
		return nil, err
	}
	if c.fpMD, err = pipeline.NewPool(cfg.FPMultDivs); err != nil {
		return nil, err
	}
	if c.rob, err = pipeline.NewROB(cfg.ROBEntries); err != nil {
		return nil, err
	}
	if c.lsq, err = pipeline.NewLSQ(cfg.LSQEntries()); err != nil {
		return nil, err
	}
	return c, nil
}

// PrewarmMemory performs functional cache warming: it touches the
// workload's entire data working set and code footprint in the memory
// hierarchy without charging time, the scaled-down equivalent of the
// multi-billion-instruction warm-up the paper's full SPEC runs
// provide. The measured phase then observes steady-state rather than
// compulsory misses.
func (c *CPU) PrewarmMemory() {
	p := c.gen.Params()
	c.hier.PrewarmCode(trace.CodeBase, p.CodeFootprintBytes())
	c.hier.PrewarmData(trace.DataBase, p.WorkingSetBytes)
}

// Hierarchy returns the CPU's memory hierarchy, for tests and
// inspection only: simulation code must not change cache state through
// it.
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.hier }

// WarmFunctional consumes n instructions from the stream, training the
// branch predictor, BTB, RAS, caches and TLBs exactly as detailed
// execution would — but without advancing the pipeline or charging
// cycles. It is the functional-warming phase of sampled simulation
// (SMARTS-style): history-dependent structures enter a sampled region
// in the trained state a continuous run would have given them. Most of
// its cost is the generator walk (see WarmTape for the replayed form).
// Call it only before detailed simulation begins; once instructions
// are in flight the pipeline owns the stream.
//
//pbcheck:hotpath
func (c *CPU) WarmFunctional(n int64) {
	blockBytes := uint64(c.cfg.L1IBlock)
	for i := int64(0); i < n; i++ {
		in := c.nextInstr()
		c.consumeInstr()
		c.warmInstr(&in, blockBytes)
	}
}

// WarmTape is WarmFunctional over a recorded stretch of the stream:
// replaying trace.Record(gen, n) leaves every warmed structure exactly
// as WarmFunctional(n) from the same generator position would, without
// walking the generator. It does not read or advance the CPU's stream:
// the caller positions the generator past the recorded window (a
// snapshot taken after recording) before detailed simulation. Like
// WarmFunctional, call it only before detailed simulation begins.
//
//pbcheck:hotpath
func (c *CPU) WarmTape(t *trace.Tape) {
	blockBytes := uint64(c.cfg.L1IBlock)
	r := t.Reader()
	var in trace.Instr
	for r.More() {
		r.Next(&in)
		c.warmInstr(&in, blockBytes)
	}
}

// warmInstr is the per-instruction functional-warming step both
// warming paths share: instruction fetch on a new I-cache block,
// predictor training for control, and the data access for memory.
//
//pbcheck:hotpath
func (c *CPU) warmInstr(in *trace.Instr, blockBytes uint64) {
	if block := in.PC / blockBytes; block != c.lastFetchBlock {
		c.hier.InstFetch(in.PC, c.cycle)
		c.lastFetchBlock = block
	}
	if in.Class.IsControl() && c.pred != nil {
		c.warmControl(*in)
	}
	if in.Class.IsMem() {
		c.hier.DataAccess(in.Addr, c.cycle)
	}
}

// warmControl applies the predictor-training side effects of one
// control instruction — the same updates predictControl and commitStage
// perform, minus the prediction itself.
//
//pbcheck:hotpath
func (c *CPU) warmControl(in trace.Instr) {
	switch in.Class {
	case trace.Branch:
		c.pred.Update(in.PC, in.Taken)
		if in.Taken {
			c.btb.Insert(in.PC, in.Target)
		}
	case trace.Call:
		c.ras.Push(in.Addr)
		c.btb.Insert(in.PC, in.Target)
	case trace.Return:
		c.ras.Pop()
	}
}

// Run simulates until n instructions commit and returns the run's
// statistics. It errors out if the pipeline stops making progress
// (which would indicate a simulator bug, not a configuration choice).
func (c *CPU) Run(n int64) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("sim: instruction count %d invalid", n)
	}
	if err := c.runTo(n); err != nil {
		return c.snapshot(), err
	}
	return c.snapshot(), nil
}

// RunWithWarmup simulates warmup instructions to populate the caches,
// TLBs and predictors, then simulates n more and returns statistics
// covering only the measured phase.
func (c *CPU) RunWithWarmup(warmup, n int64) (Stats, error) {
	if warmup < 0 || n <= 0 {
		return Stats{}, fmt.Errorf("sim: invalid warmup/measure counts (%d, %d)", warmup, n)
	}
	if err := c.runTo(warmup); err != nil {
		return c.snapshot(), err
	}
	base := c.snapshot()
	if err := c.runTo(warmup + n); err != nil {
		return c.snapshot(), err
	}
	return c.snapshot().sub(base), nil
}

// RunMore advances the same CPU by n more committed instructions and
// returns statistics covering only that increment. Successive calls
// partition one continuous run into consecutive measured windows
// without disturbing microarchitectural state — the sampling layer
// uses it to read per-region cycle counts off a single warmed
// pipeline.
func (c *CPU) RunMore(n int64) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("sim: instruction count %d invalid", n)
	}
	base := c.snapshot()
	if err := c.runTo(c.committed + n); err != nil {
		return c.snapshot().sub(base), err
	}
	return c.snapshot().sub(base), nil
}

// runTo advances the simulation until the committed-instruction count
// reaches target. It advances by events: each iteration jumps to the
// earliest cycle at which some stage could act (nextEvent), so the
// cycles in between — in which every stage would find nothing to do —
// are never stepped. The results are those of running every stage on
// every cycle.
func (c *CPU) runTo(target int64) error {
	c.stopAt = target
	// Generous progress bound: even a 1-wide machine with worst-case
	// memory latencies commits one instruction within ~1000 cycles.
	maxCycles := c.cycle + (target-c.committed)*2000 + 100000
	for c.committed < target {
		if c.stepping {
			c.issueWake = 0
			c.cycle++
		} else {
			// Capped so that a stuck pipeline still stops at
			// maxCycles+1, exactly where stepping would.
			c.cycle = min(c.nextEvent(), maxCycles+1)
		}
		c.commitStage()
		c.issueStage()
		c.dispatchStage()
		c.fetchStage()
		if c.cycle > maxCycles {
			return fmt.Errorf("sim: no forward progress after %d cycles (%d/%d committed)", c.cycle, c.committed, target)
		}
	}
	return nil
}

// nextEvent returns the earliest cycle after the current one at which
// any stage could change state, given the state the CPU is in:
// commit once the issued ROB head's result is ready, issue at its wake
// cycle, fetch when a halt's resume cycle arrives (the halt clears then
// even with the IFQ full) or, with the IFQ not full, when an I-cache
// stall ends, and dispatch on the following cycle whenever it could
// move an instruction. Until one of those cycles no stage has anything
// to do, so the cycles in between can be skipped without changing any
// result.
//
//pbcheck:hotpath
func (c *CPU) nextEvent() int64 {
	next := c.cycle + 1
	if c.ifqLen > 0 && !c.rob.Full() && (!c.ifq[c.ifqHead].instr.Class.IsMem() || !c.lsq.Full()) {
		return next
	}
	at := c.issueWake
	if h := c.rob.Head(); h != nil && h.Issued && c.committed < c.stopAt {
		at = min(at, h.ReadyAt)
	}
	if c.haltSeq >= 0 {
		if c.resumeAt >= 0 {
			at = min(at, c.resumeAt)
		}
	} else if c.ifqLen < len(c.ifq) {
		at = min(at, c.fetchBlockedUntil)
	}
	return max(at, next)
}

// sub returns s - base, field-wise, for warmup exclusion.
func (s Stats) sub(base Stats) Stats {
	subCache := func(a, b cache.Stats) cache.Stats {
		return cache.Stats{Accesses: a.Accesses - b.Accesses, Misses: a.Misses - b.Misses}
	}
	return Stats{
		Cycles:           s.Cycles - base.Cycles,
		Instructions:     s.Instructions - base.Instructions,
		ControlInstrs:    s.ControlInstrs - base.ControlInstrs,
		Mispredicts:      s.Mispredicts - base.Mispredicts,
		MispredDirection: s.MispredDirection - base.MispredDirection,
		MispredBTB:       s.MispredBTB - base.MispredBTB,
		MispredRAS:       s.MispredRAS - base.MispredRAS,
		Loads:            s.Loads - base.Loads,
		Stores:           s.Stores - base.Stores,
		PrecompHits:      s.PrecompHits - base.PrecompHits,
		L1I:              subCache(s.L1I, base.L1I),
		L1D:              subCache(s.L1D, base.L1D),
		L2:               subCache(s.L2, base.L2),
		ITLB:             subCache(s.ITLB, base.ITLB),
		DTLB:             subCache(s.DTLB, base.DTLB),
		DRAMAccesses:     s.DRAMAccesses - base.DRAMAccesses,
		IntALUOps:        s.IntALUOps - base.IntALUOps,
		IntMDOps:         s.IntMDOps - base.IntMDOps,
		FPALUOps:         s.FPALUOps - base.FPALUOps,
		FPMDOps:          s.FPMDOps - base.FPMDOps,
	}
}

// snapshot finalizes the statistics.
func (c *CPU) snapshot() Stats {
	s := c.stats
	s.Cycles = c.cycle
	s.Instructions = c.committed
	s.L1I = c.hier.L1I.Stats()
	s.L1D = c.hier.L1D.Stats()
	s.L2 = c.hier.L2.Stats()
	s.ITLB = c.hier.ITLB.Stats()
	s.DTLB = c.hier.DTLB.Stats()
	s.DRAMAccesses = c.hier.DRAMAccesses
	s.IntALUOps = c.intALU.Issued()
	s.IntMDOps = c.intMD.Issued()
	s.FPALUOps = c.fpALU.Issued()
	s.FPMDOps = c.fpMD.Issued()
	return s
}

// nextInstr returns the next instruction to fetch without consuming
// it; consume advances past it.
//
//pbcheck:hotpath
func (c *CPU) nextInstr() trace.Instr {
	if !c.pendingSet {
		c.pending = c.gen.Next()
		c.pendingSet = true
	}
	return c.pending
}

//pbcheck:hotpath
func (c *CPU) consumeInstr() {
	c.pendingSet = false
}

// fetchStage fills the IFQ: up to Width instructions per cycle, at
// most one new instruction-cache block per cycle, stopping at a taken
// control instruction, an IFQ-full condition, an instruction-cache
// stall, or a misprediction (fetch halts until the offending
// instruction resolves and the penalty elapses).
//
//pbcheck:hotpath
func (c *CPU) fetchStage() {
	if c.haltSeq >= 0 {
		if c.resumeAt < 0 || c.cycle < c.resumeAt {
			return
		}
		c.haltSeq = -1
		c.resumeAt = -1
		c.redirectPending = true
	}
	if c.cycle < c.fetchBlockedUntil {
		return
	}
	blockBytes := uint64(c.cfg.L1IBlock)
	fetchedN := 0
	for fetchedN < c.cfg.Width && c.ifqLen < len(c.ifq) {
		in := c.nextInstr()
		block := in.PC / blockBytes
		if block != c.lastFetchBlock {
			lat := c.hier.InstFetch(in.PC, c.cycle)
			c.lastFetchBlock = block
			if c.redirectPending || lat > int64(c.cfg.L1ILat) {
				// A redirect pays the access latency; a miss stalls
				// fetch until the line arrives. (Sequential hits are
				// pipelined and cost nothing extra.)
				c.fetchBlockedUntil = c.cycle + lat
				c.redirectPending = false
				return
			}
		}
		c.consumeInstr()
		f := fetched{instr: in, seq: c.seq}
		c.seq++
		if in.Class.IsControl() {
			f.mispredict = c.predictControl(in)
		}
		slot := c.ifqHead + c.ifqLen // < 2*len, so one conditional wrap suffices
		if slot >= len(c.ifq) {
			slot -= len(c.ifq)
		}
		c.ifq[slot] = f
		c.ifqLen++
		fetchedN++
		if f.mispredict {
			c.haltSeq = f.seq
			c.resumeAt = -1
			return
		}
		if in.Taken {
			// One taken control transfer per fetch cycle.
			return
		}
	}
}

// predictControl runs the front-end prediction hardware for a control
// instruction and reports whether the prediction was wrong.
//
//pbcheck:hotpath
func (c *CPU) predictControl(in trace.Instr) bool {
	if c.pred == nil {
		return false // perfect prediction
	}
	mispredict := false
	switch in.Class {
	case trace.Branch:
		predTaken := c.pred.Predict(in.PC)
		dirWrong := predTaken != in.Taken
		var predTarget uint64
		btbWrong := false
		if predTaken {
			tgt, hit := c.btb.Lookup(in.PC)
			if !hit {
				// No target available: fall through sequentially.
				predTaken = false
				btbWrong = in.Taken
			} else {
				predTarget = tgt
				btbWrong = in.Taken && predTarget != in.Target
			}
		}
		mispredict = predTaken != in.Taken || btbWrong
		if mispredict {
			if dirWrong {
				c.stats.MispredDirection++
			} else {
				c.stats.MispredBTB++
			}
		}
		if c.cfg.SpecUpdate {
			c.pred.Update(in.PC, in.Taken)
			if in.Taken {
				c.btb.Insert(in.PC, in.Target)
			}
		}
	case trace.Call:
		tgt, hit := c.btb.Lookup(in.PC)
		mispredict = !hit || tgt != in.Target
		if mispredict {
			c.stats.MispredBTB++
		}
		// The return address (the call's fall-through, carried in
		// Addr) is pushed regardless of the target prediction.
		c.ras.Push(in.Addr)
		if c.cfg.SpecUpdate {
			c.btb.Insert(in.PC, in.Target)
		}
	case trace.Return:
		tgt, ok := c.ras.Pop()
		mispredict = !ok || tgt != in.Target
		if mispredict {
			c.stats.MispredRAS++
		}
	}
	return mispredict
}

// dispatchStage moves instructions from the IFQ into the ROB (and
// LSQ), applying the compute shortcut. Each entry that still has to
// issue joins iq, and any dispatch re-arms issue for the next cycle.
//
//pbcheck:hotpath
func (c *CPU) dispatchStage() {
	for n := 0; n < c.cfg.Width && c.ifqLen > 0; n++ {
		f := &c.ifq[c.ifqHead]
		if c.rob.Full() {
			return
		}
		if f.instr.Class.IsMem() && !c.lsq.Alloc() {
			return
		}
		e := c.rob.Push()
		e.Instr = f.instr
		e.Seq = f.seq
		e.Mispredict = f.mispredict
		c.readyRing[f.seq&c.ringMask] = pipeline.NotReady
		if f.instr.CompID != 0 && c.shortcut != nil && c.shortcut.Hit(f.instr.CompID) {
			e.Issued = true
			e.Precomputed = true
			e.ReadyAt = c.cycle + 1
			c.readyRing[f.seq&c.ringMask] = e.ReadyAt
			c.stats.PrecompHits++
		} else {
			c.iq = append(c.iq, e)
		}
		c.issueWake = c.cycle + 1
		c.ifqHead++
		if c.ifqHead == len(c.ifq) {
			c.ifqHead = 0
		}
		c.ifqLen--
	}
}

// operandsAt returns the cycle at which both source operands of e are
// available: the later of its producers' result-ready cycles, NotReady
// while a producer has not issued.
//
//pbcheck:hotpath
func (c *CPU) operandsAt(e *pipeline.Entry) int64 {
	var at int64
	if d := e.Instr.Dep1; d > 0 {
		at = c.readyRing[(e.Seq-int64(d))&c.ringMask]
	}
	if d := e.Instr.Dep2; d > 0 {
		at = max(at, c.readyRing[(e.Seq-int64(d))&c.ringMask])
	}
	return at
}

// issueStage selects up to Width ready instructions, oldest first,
// subject to functional-unit and memory-port availability. It scans
// only the unissued entries (iq), and only from issueWake on: each scan
// sets issueWake to the earliest cycle at which an entry it left
// waiting could issue — when its operands are ready, when a unit of a
// busy pool frees up, or the next cycle for a memory-port or
// issue-width stop — and any dispatch re-arms it for the next cycle.
// An entry whose producer has not issued needs no wake of its own: it
// sits behind that producer, whose issue the same scan reaches first.
//
//pbcheck:hotpath
func (c *CPU) issueStage() {
	if c.cycle < c.issueWake {
		return
	}
	wake := int64(pipeline.NotReady)
	issued := 0
	portsUsed := 0
	kept := c.iq[:0]
	for i, e := range c.iq {
		if at := c.operandsAt(e); at > c.cycle {
			wake = min(wake, at)
			kept = append(kept, e)
			continue
		}
		var pool *pipeline.Pool
		var lat, interval int64 = 0, 1
		var ready int64
		switch e.Instr.Class {
		case trace.IntALU, trace.Branch, trace.Call, trace.Return:
			pool, lat = c.intALU, int64(c.cfg.IntALULat)
		case trace.IntMult:
			pool, lat = c.intMD, int64(c.cfg.IntMultLat)
		case trace.IntDiv:
			pool, lat = c.intMD, int64(c.cfg.IntDivLat)
			interval = lat
		case trace.FPAdd:
			pool, lat = c.fpALU, int64(c.cfg.FPALULat)
		case trace.FPMult:
			pool, lat = c.fpMD, int64(c.cfg.FPMultLat)
			interval = lat
		case trace.FPDiv:
			pool, lat = c.fpMD, int64(c.cfg.FPDivLat)
			interval = lat
		case trace.FPSqrt:
			pool, lat = c.fpMD, int64(c.cfg.FPSqrtLat)
			interval = lat
		case trace.Load, trace.Store:
			if portsUsed >= c.cfg.MemPorts {
				wake = min(wake, c.cycle+1)
				kept = append(kept, e)
				continue
			}
			portsUsed++
			if e.Instr.Class == trace.Load {
				ready = c.cycle + c.hier.DataAccess(e.Instr.Addr, c.cycle)
			} else {
				// Address generation and store-buffer write; the cache
				// is updated at commit.
				ready = c.cycle + int64(c.cfg.L1DLat)
			}
		default:
			ready = c.cycle + 1
		}
		if pool != nil {
			if !pool.TryIssue(c.cycle, interval) {
				wake = min(wake, pool.NextFree())
				kept = append(kept, e)
				continue
			}
			ready = c.cycle + lat
		}
		e.Issued = true
		e.ReadyAt = ready
		c.readyRing[e.Seq&c.ringMask] = ready
		if e.Mispredict && e.Seq == c.haltSeq {
			c.resumeAt = ready + int64(c.cfg.MispredictPenalty)
		}
		issued++
		if issued == c.cfg.Width {
			kept = append(kept, c.iq[i+1:]...)
			wake = min(wake, c.cycle+1)
			break
		}
	}
	c.iq = kept
	c.issueWake = wake
}

// commitStage retires completed instructions in order, up to Width per
// cycle, performing store writes, enhancement training, and (in
// commit-update mode) predictor training.
//
//pbcheck:hotpath
func (c *CPU) commitStage() {
	for n := 0; n < c.cfg.Width && !c.rob.Empty() && c.committed < c.stopAt; n++ {
		e := c.rob.Head()
		if !e.Issued || e.ReadyAt > c.cycle {
			return
		}
		in := &e.Instr
		switch {
		case in.Class == trace.Load:
			c.stats.Loads++
			c.lsq.Release()
		case in.Class == trace.Store:
			c.stats.Stores++
			c.lsq.Release()
			// The store drains to the cache now; it occupies the DRAM
			// channel on a miss but does not stall retirement.
			c.hier.DataAccess(in.Addr, c.cycle)
		case in.Class.IsControl():
			c.stats.ControlInstrs++
			if e.Mispredict {
				c.stats.Mispredicts++
			}
			if c.pred != nil && !c.cfg.SpecUpdate {
				if in.Class == trace.Branch {
					c.pred.Update(in.PC, in.Taken)
				}
				if in.Taken && in.Class != trace.Return {
					c.btb.Insert(in.PC, in.Target)
				}
			}
		case in.Class.IsCompute() && in.CompID != 0 && c.shortcut != nil:
			c.shortcut.Observe(in.CompID)
		}
		c.rob.PopHead()
		c.committed++
	}
}
