package cache

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometry(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 4096, Assoc: 2, BlockBytes: 16, Policy: LRU})
	if c.Sets() != 128 || c.Ways() != 2 || c.BlockBytes() != 16 {
		t.Errorf("geometry: %d sets, %d ways, %d block", c.Sets(), c.Ways(), c.BlockBytes())
	}
	full := mustCache(t, Config{SizeBytes: 1024, Assoc: FullyAssociative, BlockBytes: 64, Policy: LRU})
	if full.Sets() != 1 || full.Ways() != 16 {
		t.Errorf("fully associative: %d sets, %d ways", full.Sets(), full.Ways())
	}
	// Associativity larger than block count degrades to fully
	// associative rather than failing.
	over := mustCache(t, Config{SizeBytes: 128, Assoc: 8, BlockBytes: 64, Policy: LRU})
	if over.Ways() != 2 {
		t.Errorf("oversized assoc: %d ways", over.Ways())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 4096, Assoc: 1, BlockBytes: 0},
		{SizeBytes: 4096, Assoc: 1, BlockBytes: 24},
		{SizeBytes: 100, Assoc: 1, BlockBytes: 16},
		{SizeBytes: 0, Assoc: 1, BlockBytes: 16},
		{SizeBytes: 4096, Assoc: 0, BlockBytes: 16},
		{SizeBytes: 4096, Assoc: 3, BlockBytes: 16},  // 256 blocks not divisible -> 85.33 sets
		{SizeBytes: 1536, Assoc: 1, BlockBytes: 16},  // 96 sets, not a power of two
		{SizeBytes: 4096, Assoc: -2, BlockBytes: 16}, // negative but not FullyAssociative
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64, Policy: LRU})
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x103f) {
		t.Error("same-block access missed")
	}
	if c.Access(0x1040) {
		t.Error("next block should cold-miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %g", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way set: fill both ways, touch the first, insert a third
	// conflicting block; the second (least recently used) must be the
	// victim.
	c := mustCache(t, Config{SizeBytes: 128, Assoc: 2, BlockBytes: 64, Policy: LRU})
	// One set only (128/64/2 = 1 set).
	a, b, d := uint64(0), uint64(64*1), uint64(64*2)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("a evicted despite recent use")
	}
	if c.Contains(b) {
		t.Error("b should have been the LRU victim")
	}
	if !c.Contains(d) {
		t.Error("d not installed")
	}
}

func TestFIFOEviction(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 128, Assoc: 2, BlockBytes: 64, Policy: FIFO})
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a)
	c.Access(b)
	c.Access(a) // re-touch must NOT refresh FIFO order
	c.Access(d) // evicts a (first in)
	if c.Contains(a) {
		t.Error("FIFO should evict the oldest arrival even if recently used")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Error("b/d missing")
	}
}

func TestRandomPolicyStaysWithinSet(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 256, Assoc: 2, BlockBytes: 64, Policy: Random})
	for i := 0; i < 1000; i++ {
		c.Access(uint64(i*64) << 1)
	}
	// After heavy traffic the cache still functions: a freshly
	// accessed block is present.
	c.Access(0xdead000)
	if !c.Contains(0xdead000) {
		t.Error("random policy lost the just-inserted block")
	}
	if Random.String() != "Random" || LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("policy names")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	// A working set equal to the cache size, walked repeatedly, must
	// only cold-miss with LRU and a direct-mapped-friendly layout.
	c := mustCache(t, Config{SizeBytes: 4096, Assoc: 1, BlockBytes: 64, Policy: LRU})
	blocks := 4096 / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < blocks; i++ {
			c.Access(uint64(i * 64))
		}
	}
	s := c.Stats()
	if s.Misses != uint64(blocks) {
		t.Errorf("misses = %d, want %d cold misses only", s.Misses, blocks)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// A working set of 2x the cache size walked cyclically with LRU
	// misses every time (the classic LRU worst case).
	c := mustCache(t, Config{SizeBytes: 1024, Assoc: FullyAssociative, BlockBytes: 64, Policy: LRU})
	blocks := 2 * 1024 / 64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < blocks; i++ {
			c.Access(uint64(i * 64))
		}
	}
	s := c.Stats()
	if s.Misses != s.Accesses {
		t.Errorf("cyclic thrash should miss always: %d/%d", s.Misses, s.Accesses)
	}
}

func TestFlush(t *testing.T) {
	c := mustCache(t, Config{SizeBytes: 512, Assoc: 2, BlockBytes: 64, Policy: LRU})
	c.Access(0x40)
	c.Flush()
	if c.Contains(0x40) {
		t.Error("flush left data behind")
	}
	if c.Stats().Accesses != 0 {
		t.Error("flush did not clear stats")
	}
}

// TestFlushReplaysLikeNew: after Flush, a Random cache must pick the
// same victims as a new one, so replaying one access stream leaves
// both in the same state.
func TestFlushReplaysLikeNew(t *testing.T) {
	cfg := Config{SizeBytes: 512, Assoc: 4, BlockBytes: 16, Policy: Random}
	replay := func(c *Cache) {
		for i := uint64(0); i < 200; i++ {
			c.Access(i * 48 % 4096)
		}
	}
	flushed, fresh := mustCache(t, cfg), mustCache(t, cfg)
	replay(flushed)
	flushed.Flush()
	replay(flushed)
	replay(fresh)
	if err := sameCache(flushed, fresh); err != nil {
		t.Error(err)
	}
}

func TestTLB(t *testing.T) {
	tlb, err := NewTLB(32, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tlb.Entries() != 32 || tlb.PageBytes() != 4096 {
		t.Errorf("TLB geometry: %d entries, %d page", tlb.Entries(), tlb.PageBytes())
	}
	if tlb.Access(0x1000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Error("next page should cold-miss")
	}
	if s := tlb.Stats(); s.Accesses != 3 || s.Misses != 2 {
		t.Errorf("TLB stats = %+v", s)
	}
	tlb.Flush()
	if tlb.Stats().Accesses != 0 {
		t.Error("TLB flush")
	}
	fully, err := NewTLB(64, FullyAssociative, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if fully.PageBytes() != 1<<22 {
		t.Errorf("page bytes = %d", fully.PageBytes())
	}
	if _, err := NewTLB(0, 1, 4096); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewTLB(32, 1, 1000); err == nil {
		t.Error("non-power-of-two page accepted")
	}
	if _, err := NewTLB(48, 32, 4096); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
}

func TestTLBReachCapacity(t *testing.T) {
	// 32 fully-associative entries with 4 KB pages: touching 32 pages
	// then revisiting them hits; a 33rd page evicts the LRU one.
	tlb, _ := NewTLB(32, FullyAssociative, 4096)
	for p := 0; p < 32; p++ {
		tlb.Access(uint64(p) << 12)
	}
	for p := 0; p < 32; p++ {
		if !tlb.Access(uint64(p) << 12) {
			t.Fatalf("page %d evicted within capacity", p)
		}
	}
	tlb.Access(32 << 12)
	if tlb.Access(0) {
		t.Error("LRU page survived over-capacity insert")
	}
}

func TestPropCacheContainsAfterAccess(t *testing.T) {
	f := func(addrs []uint64) bool {
		c, err := New(Config{SizeBytes: 2048, Assoc: 4, BlockBytes: 32, Policy: LRU})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(a)
			if !c.Contains(a) {
				return false
			}
			// A Contains probe never changes state.
			if !c.Access(a) {
				return false
			}
		}
		s := c.Stats()
		return s.Accesses == 2*uint64(len(addrs)) && s.Misses <= uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropBiggerCacheNeverMissesMore(t *testing.T) {
	// Fully-associative LRU caches have the stack property: a larger
	// cache's misses are a subset of a smaller one's on any trace.
	f := func(seed uint64) bool {
		small, _ := New(Config{SizeBytes: 1024, Assoc: FullyAssociative, BlockBytes: 64, Policy: LRU})
		big, _ := New(Config{SizeBytes: 4096, Assoc: FullyAssociative, BlockBytes: 64, Policy: LRU})
		s := seed
		for i := 0; i < 3000; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			addr := (s >> 16) % (1 << 14)
			small.Access(addr)
			big.Access(addr)
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
