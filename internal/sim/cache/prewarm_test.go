package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameCache reports the first difference between two caches in the
// state a prewarm defines: lines, clock, xorshift state and counters.
func sameCache(a, b *Cache) error {
	if len(a.lines) != len(b.lines) {
		return fmt.Errorf("%d lines vs %d", len(a.lines), len(b.lines))
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Errorf("line %d (set %d way %d): %+v vs %+v", i, i/a.ways, i%a.ways, a.lines[i], b.lines[i])
		}
	}
	if a.clock != b.clock || a.rng != b.rng || a.stats != b.stats {
		return fmt.Errorf("clock/rng/stats %d/%#x/%+v vs %d/%#x/%+v", a.clock, a.rng, a.stats, b.clock, b.rng, b.stats)
	}
	return nil
}

// sameHierarchy applies sameCache to every structure and compares the
// DRAM counter.
func sameHierarchy(a, b *Hierarchy) error {
	for _, p := range []struct {
		name string
		a, b *Cache
	}{
		{"L1I", a.L1I, b.L1I}, {"L1D", a.L1D, b.L1D}, {"L2", a.L2, b.L2},
		{"ITLB", a.ITLB.cache, b.ITLB.cache}, {"DTLB", a.DTLB.cache, b.DTLB.cache},
	} {
		if err := sameCache(p.a, p.b); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if a.DRAMAccesses != b.DRAMAccesses {
		return fmt.Errorf("DRAM accesses %d vs %d", a.DRAMAccesses, b.DRAMAccesses)
	}
	return nil
}

// randCacheConfig draws a cache of 1..64 sets, 1..16 ways and
// 1..512-byte blocks, or a fully-associative one of up to 64 ways.
func randCacheConfig(r *rand.Rand, policy Replacement) Config {
	block := 1 << r.Intn(10)
	sets := 1 << r.Intn(7)
	ways := 1 + r.Intn(16)
	assoc := ways
	if r.Intn(6) == 0 {
		sets, assoc = 1<<r.Intn(3), FullyAssociative
	}
	return Config{SizeBytes: sets * ways * block, Assoc: assoc, BlockBytes: block, Policy: policy}
}

func randHierConfig(r *rand.Rand, policy Replacement) HierarchyConfig {
	cfg := testHierCfg()
	cfg.L1I = randCacheConfig(r, policy)
	cfg.L1D = randCacheConfig(r, policy)
	cfg.L2 = randCacheConfig(r, policy)
	cfg.ITLBEntries, cfg.ITLBAssoc = 1<<r.Intn(7), 1<<r.Intn(4)
	cfg.DTLBEntries, cfg.DTLBAssoc = 1<<r.Intn(7), FullyAssociative
	if cfg.ITLBAssoc > cfg.ITLBEntries {
		cfg.ITLBAssoc = cfg.ITLBEntries
	}
	cfg.PageBytes = 1 << r.Intn(13)
	return cfg
}

// prewarmOp is one PrewarmCode (code) or PrewarmData call.
type prewarmOp struct {
	code        bool
	start, size uint64
}

func (o prewarmOp) String() string {
	side := "data"
	if o.code {
		side = "code"
	}
	return fmt.Sprintf("%s[%#x+%#x)", side, o.start, o.size)
}

// apply runs the op through the public entry points (fast path where
// it holds) on fast, and through walk alone on ref.
func (o prewarmOp) apply(fast, ref *Hierarchy) {
	if o.code {
		fast.PrewarmCode(o.start, o.size)
		ref.walk(ref.L1I, ref.ITLB, o.start, o.size)
	} else {
		fast.PrewarmData(o.start, o.size)
		ref.walk(ref.L1D, ref.DTLB, o.start, o.size)
	}
}

// randRange draws an unaligned start and a size from empty up to
// many laps of the drawn structures.
func randRange(r *rand.Rand, base uint64) (uint64, uint64) {
	start := base + uint64(r.Intn(1<<16))
	var size uint64
	switch r.Intn(4) {
	case 0:
		size = uint64(r.Intn(64))
	case 1:
		size = uint64(r.Intn(4096))
	default:
		size = uint64(r.Intn(1 << 18))
	}
	return start, size
}

// checkOps applies ops to a fresh pair of hierarchies, fails on the
// first state that differs from the walk's, and returns the hierarchy
// warmed through the public entry points.
func checkOps(t *testing.T, trial int, cfg HierarchyConfig, ops []prewarmOp) *Hierarchy {
	t.Helper()
	fast, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		op.apply(fast, ref)
		if err := sameHierarchy(fast, ref); err != nil {
			t.Fatalf("trial %d, cfg %+v, after op %d of %v: %v", trial, cfg, i, ops, err)
		}
	}
	return fast
}

// TestPrewarmMatchesWalk is the oracle property: over random
// geometries, LRU and FIFO, unaligned starts, sub-16-byte blocks and
// pages, L1 blocks larger than L2 blocks, and ranges from empty to
// many laps of the cache, code then data (disjoint, either order)
// must leave exactly the walk's state.
func TestPrewarmMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	swept := 0
	for trial := 0; trial < trials; trial++ {
		policy := LRU
		if r.Intn(3) == 0 {
			policy = FIFO
		}
		cfg := randHierConfig(r, policy)
		codeBase, dataBase := uint64(0x40_0000), uint64(1<<32)
		if r.Intn(2) == 0 {
			codeBase, dataBase = dataBase, codeBase
		}
		cs, csz := randRange(r, codeBase)
		ds, dsz := randRange(r, dataBase)
		ops := []prewarmOp{{true, cs, csz}, {false, ds, dsz}}
		if r.Intn(2) == 0 {
			ops[0], ops[1] = ops[1], ops[0]
		}
		// The ranges are disjoint, so every non-empty op must have
		// taken the fast path, leaving L2's swept bound current.
		if l2 := checkOps(t, trial, cfg, ops).L2; l2.clock != 0 {
			if l2.sweptAt != l2.clock {
				t.Fatalf("trial %d: the walk ran on disjoint ranges %v", trial, ops)
			}
			swept++
		}
	}
	if swept < trials/2 {
		t.Fatalf("only %d of %d trials took the fast path", swept, trials)
	}
}

// TestPrewarmSweeps checks that the fast path builds a fresh
// hierarchy, that a resident range is not swept again, and that a
// flushed cache counts as fresh.
func TestPrewarmSweeps(t *testing.T) {
	h := mustHier(t, testHierCfg())
	h.PrewarmCode(0x400000, 4096)
	h.PrewarmData(0x10000, 8192)
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.ITLB.cache, h.DTLB.cache} {
		if c.sweptAt == 0 || c.sweptAt != c.clock {
			t.Fatalf("structure not swept: clock %d, swept at %d", c.clock, c.sweptAt)
		}
	}
	if h.L2.sweepable(h.L2.blockBits, 0x10000, 0x12000) {
		t.Error("range already resident in L2 counted as sweepable")
	}
	h.L2.Flush()
	if !h.L2.sweepable(h.L2.blockBits, 0x10000, 0x12000) {
		t.Error("flushed cache is not sweepable")
	}
}

// TestPrewarmFallbackMatchesWalk covers the cases sweep cannot take:
// Random replacement, warming the same or an overlapping range twice,
// structures touched by accesses between warmings, and flushes. Every
// one must still leave the walk's state.
func TestPrewarmFallbackMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		policy := []Replacement{LRU, FIFO, Random}[r.Intn(3)]
		cfg := randHierConfig(r, policy)
		fast, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(0x10000)
		for step := 0; step < 4; step++ {
			start, size := randRange(r, base)
			op := prewarmOp{code: r.Intn(2) == 0, start: start, size: size}
			switch r.Intn(4) {
			case 0: // touch every structure between warmings
				for i := 0; i < 8; i++ {
					a := base + uint64(r.Intn(1<<17))
					fast.DataAccess(a, 0)
					ref.DataAccess(a, 0)
					fast.InstFetch(a, 0)
					ref.InstFetch(a, 0)
				}
			case 1: // a flushed structure counts as fresh
				fast.L2.Flush()
				ref.L2.Flush()
				fast.DTLB.Flush()
				ref.DTLB.Flush()
			}
			op.apply(fast, ref)
			if err := sameHierarchy(fast, ref); err != nil {
				t.Fatalf("trial %d (%v), cfg %+v, step %d %v: %v", trial, policy, cfg, step, op, err)
			}
		}
	}
}

func TestPrewarmEdgeRanges(t *testing.T) {
	cfg := testHierCfg()
	cfg.L1D = Config{SizeBytes: 256, Assoc: 2, BlockBytes: 64, Policy: LRU}
	cfg.L2 = Config{SizeBytes: 512, Assoc: FullyAssociative, BlockBytes: 16, Policy: FIFO}
	cfg.PageBytes = 4
	top := ^uint64(0)
	for i, ops := range [][]prewarmOp{
		{{false, top - 1000, 1000}}, // ends at the top of the address space
		{{false, top - 1000, 2000}}, // wraps: the walk touches nothing
		{{false, 7, 1}},             // a single unaligned point
		{{false, 63, 2}},            // first point alone in its block
		{{false, 0, 1 << 20}, {true, 1 << 20, 1 << 20}},
		{{false, 100, 1000}, {false, 1100, 1000}}, // adjacent, sharing blocks
	} {
		checkOps(t, i, cfg, ops)
	}
}

// TestPrewarmAliasedL2MatchesWalk: the structures are exported fields,
// so an L1 can be the L2 as well; the walk then probes it twice per
// miss, which sweep does not model.
func TestPrewarmAliasedL2MatchesWalk(t *testing.T) {
	fast, ref := mustHier(t, testHierCfg()), mustHier(t, testHierCfg())
	fast.L2, ref.L2 = fast.L1D, ref.L1D
	prewarmOp{false, 0x1008, 1 << 16}.apply(fast, ref)
	if err := sameHierarchy(fast, ref); err != nil {
		t.Error(err)
	}
}
