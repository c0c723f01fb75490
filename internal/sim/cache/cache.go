// Package cache models the parameterized memory-hierarchy structures
// of Table 8 of the paper: set-associative caches with configurable
// size, associativity, block size and replacement policy, translation
// lookaside buffers, and a DRAM channel with a first-block latency and
// a bandwidth-limited transfer time for the remaining chunks of a
// block.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy of a set.
type Replacement int

// Supported replacement policies. The paper uses LRU throughout; FIFO
// and Random are provided for ablation studies.
const (
	LRU Replacement = iota
	FIFO
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways; use FullyAssociative for a
	// fully-associative array.
	Assoc int
	// BlockBytes is the line size (power of two).
	BlockBytes int
	// Policy is the replacement policy.
	Policy Replacement
}

// FullyAssociative requests associativity equal to the number of
// blocks.
const FullyAssociative = -1

// Stats counts accesses and misses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 when no accesses occurred).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one way of a set: the block tag plus its replacement stamp.
// meta is the LRU stamp or FIFO arrival time; 0 marks an invalid line
// (the clock is pre-incremented on every access, so a filled line
// always carries a stamp >= 1). Keeping tag and stamp in one 16-byte
// struct lets a set probe walk a single contiguous array instead of
// three parallel slices — one cache line of host memory covers a
// 4-way set.
type line struct {
	tag  uint64
	meta uint64
}

// Cache is a set-associative tag array. It tracks presence only (no
// data), which is all a timing model needs.
type Cache struct {
	sets      int
	ways      int
	blockBits uint
	setMask   uint64
	lines     []line // sets*ways entries, set-major
	clock     uint64
	policy    Replacement
	rng       uint64 // xorshift state for Random policy
	stats     Stats
	// While clock == sweptAt, every resident block lies in
	// [sweptLo, sweptHi]: all fills since the cache was new or flushed
	// came from sweeps, and no Access has run since. sweptAt == 0
	// marks no such bound.
	sweptLo, sweptHi, sweptAt uint64
}

// rngSeed is the xorshift state of a new (or flushed) cache.
const rngSeed = 0x9e3779b97f4a7c15

// New builds a cache from the configuration. Size must be a positive
// multiple of BlockBytes, and BlockBytes a power of two; Assoc must
// divide the block count (or be FullyAssociative).
func New(cfg Config) (*Cache, error) {
	if cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d is not a positive power of two", cfg.BlockBytes)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%cfg.BlockBytes != 0 {
		return nil, fmt.Errorf("cache: size %d is not a positive multiple of block size %d", cfg.SizeBytes, cfg.BlockBytes)
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	assoc := cfg.Assoc
	if assoc == FullyAssociative || assoc > blocks {
		assoc = blocks
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d invalid", cfg.Assoc)
	}
	if blocks%assoc != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, assoc)
	}
	sets := blocks / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockBytes {
		blockBits++
	}
	return &Cache{
		sets:      sets,
		ways:      assoc,
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		lines:     make([]line, sets*assoc),
		policy:    cfg.Policy,
		rng:       rngSeed,
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() int { return 1 << c.blockBits }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the block containing addr, allocating it on a miss,
// and reports whether the access hit. The timing consequences of a
// miss are the caller's concern.
//
//pbcheck:hotpath
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.meta != 0 && ln.tag == block {
			if c.policy == LRU {
				ln.meta = c.clock
			}
			return true
		}
	}
	c.stats.Misses++
	c.fill(set, block)
	return false
}

// Contains reports whether the block holding addr is present, without
// updating any state or statistics.
//
//pbcheck:hotpath
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].meta != 0 && set[w].tag == block {
			return true
		}
	}
	return false
}

// fill victimizes a way of the set and installs the block. Invalid
// lines carry stamp 0, so the smallest-stamp scan of the LRU/FIFO
// policies selects the first invalid way exactly as an explicit
// invalid-first pass would.
//
//pbcheck:hotpath
func (c *Cache) fill(set []line, block uint64) {
	victim := 0
	switch c.policy {
	case Random:
		// Invalid ways first, then xorshift-random.
		found := false
		for w := range set {
			if set[w].meta == 0 {
				victim, found = w, true
				break
			}
		}
		if !found {
			c.rng ^= c.rng << 13
			c.rng ^= c.rng >> 7
			c.rng ^= c.rng << 17
			victim = int(c.rng % uint64(c.ways))
		}
	default: // LRU and FIFO both evict the smallest stamp
		oldest := set[0].meta
		for w := 1; w < len(set); w++ {
			if set[w].meta < oldest {
				victim, oldest = w, set[w].meta
			}
		}
	}
	set[victim] = line{tag: block, meta: c.clock} // LRU: last use; FIFO: arrival time
}

// Flush invalidates every line and clears statistics, returning the
// cache to the state New built: a flushed Random cache picks the same
// victims as a new one.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.rng = rngSeed
	c.stats = Stats{}
	c.sweptAt = 0
}

// sweepable reports whether sweep may stand in for the walk over
// [start, end) with block numbers addr>>shift: the policy must not
// draw random victims, and no block of the range may be resident,
// which holds for a new or flushed cache (clock 0) and for one whose
// swept bound the range misses.
func (c *Cache) sweepable(shift uint, start, end uint64) bool {
	if c.policy == Random {
		return false
	}
	if c.clock == 0 {
		return true
	}
	return c.clock == c.sweptAt && ((end-1)>>shift < c.sweptLo || start>>shift > c.sweptHi)
}

// sweep leaves the cache exactly as the walk does when it probes
// every walk point of [start, end) -- start itself, then each multiple
// of step above it and below end -- with block numbers addr>>shift,
// and requires sweepable. Every block is new to the cache, so the
// first probe of a block misses and fills; the repeats that follow
// inside the same block only advance the clock and, under LRU,
// restamp the line just filled.
//
// The probes fall into visits, one per block: the visit to start's
// block first, which can sit off the lattice and may also hold lattice
// points, then lattice visits, whose blocks are 1<<dn apart and which
// hold per probes each except the last. Lattice visits period apart
// map to the same set and the period visits between them to distinct
// sets, so each set's fills are known without replaying them. Any set
// is replayed through fill, after dropping whole rounds of ways fills
// but keeping at least one: its victims follow a fixed cycle over its
// ways, so neither the way any later fill takes nor the final contents
// change. A set that held nothing before its first lattice fill gives
// the same result more cheaply: fill would put its j-th fill in way
// j mod ways, so only its last ways fills are written, with no victim
// scans. Nearly every set of a large L2 is such a set, and skipping
// the scans halves the sweep of a 6 MB range into an 8 MB L2.
// The work is thus bounded by the cache's capacity, not by the size
// of the range; the clock still counts every probe, so every stamp
// matches the walk.
//
//pbcheck:hotpath
func (c *Cache) sweep(shift uint, step, start, end uint64) {
	sb := uint(bits.TrailingZeros64(step))
	// Lattice index k (address k*step) lies in visit k>>up, whose
	// block is (k>>up)<<dn.
	var up, dn uint
	if shift > sb {
		up = shift - sb
	} else {
		dn = sb - shift
	}
	per := uint64(1) << up
	lo, hi := start>>shift, (end-1)>>shift
	k, kL := start>>sb+1, (end-1)>>sb
	clk := c.clock
	if clk == 0 {
		c.sweptLo, c.sweptHi = lo, hi
	} else {
		c.sweptLo, c.sweptHi = min(c.sweptLo, lo), max(c.sweptHi, hi)
	}
	n := uint64(1)
	if k <= kL && (k>>up)<<dn == lo {
		last := min(kL, (lo+1)<<up-1)
		n += last - k + 1
		k = last + 1
	}
	c.place(lo, clk+1, clk+n)
	clk += n
	if k <= kL {
		g0, gL := k>>up, kL>>up
		m := gL - g0 + 1
		tail := kL - gL<<up + 1 // probes of the last visit
		period := max(uint64(c.sets)>>dn, 1)
		ways := uint64(c.ways)
		for r := uint64(0); r < min(period, m); r++ {
			f := (m - r + period - 1) / period // lattice fills of this set
			base := int(((g0+r)<<dn)&c.setMask) * c.ways
			set := c.lines[base : base+c.ways]
			if empty(set) {
				for i := f - min(f, ways); i < f; i++ {
					g := g0 + r + i*period
					set[i%ways] = line{tag: g << dn, meta: c.stamp(g-g0, g == gL, clk, per, tail)}
				}
				continue
			}
			i := uint64(0)
			if f >= ways {
				i = (f/ways - 1) * ways
			}
			for ; i < f; i++ {
				g := g0 + r + i*period
				c.clock = c.stamp(g-g0, g == gL, clk, per, tail)
				c.fill(set, g<<dn)
			}
		}
		clk += kL - k + 1
	}
	c.clock = clk
	c.sweptAt = clk
}

// stamp is the stamp the walk leaves on the line of lattice visit v
// (counted from the first lattice visit) when the lattice starts
// after clock clk: every visit before it holds per probes, and the
// last visit holds tail.
//
//pbcheck:hotpath
func (c *Cache) stamp(v uint64, last bool, clk, per, tail uint64) uint64 {
	first := clk + v*per + 1
	if c.policy != LRU {
		return first // FIFO: arrival time
	}
	if last {
		return first + tail - 1
	}
	return first + per - 1
}

// empty reports whether no way of the set holds a line.
//
//pbcheck:hotpath
func empty(set []line) bool {
	for _, ln := range set {
		if ln.meta != 0 {
			return false
		}
	}
	return true
}

// place fills block into its set as the miss of a visit whose probes
// ran from clock first to clock last: the line carries first under
// FIFO and last under LRU.
//
//pbcheck:hotpath
func (c *Cache) place(block, first, last uint64) {
	c.clock = first
	if c.policy == LRU {
		c.clock = last
	}
	base := int(block&c.setMask) * c.ways
	c.fill(c.lines[base:base+c.ways], block)
}
