package cache

import "fmt"

// HierarchyConfig wires the full memory system of Table 8: split L1
// instruction/data caches, a unified L2, split instruction/data TLBs,
// and one DRAM channel.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	// Latencies in cycles for a hit in each structure.
	L1ILatency, L1DLatency, L2Latency int
	// ITLB / DTLB geometry.
	ITLBEntries, ITLBAssoc int
	DTLBEntries, DTLBAssoc int
	PageBytes              uint64
	// ITLBLatency / DTLBLatency are the page-walk penalties charged on
	// a TLB miss.
	ITLBLatency, DTLBLatency int
	// MemLatencyFirst is the DRAM latency of the first chunk;
	// MemLatencyRest the per-chunk latency of the remainder of a block
	// (the paper couples it as 0.02 x first). MemBandwidthBytes is the
	// chunk width.
	MemLatencyFirst, MemLatencyRest int
	MemBandwidthBytes               int
}

// Hierarchy is the runtime memory system. It is single-threaded, like
// the simulator that owns it.
//
// DRAM follows the SimpleScalar model the paper used: every L2 miss
// pays the first-chunk latency plus a bandwidth-limited transfer time
// for the rest of the block, and concurrent misses overlap freely (no
// channel queueing) -- memory-level parallelism is limited by the
// processor's ROB, LSQ and memory ports instead.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	ITLB *TLB
	DTLB *TLB
	// DRAMAccesses counts block transfers from memory.
	DRAMAccesses uint64
}

// NewHierarchy validates the configuration and allocates all arrays.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MemBandwidthBytes <= 0 {
		return nil, fmt.Errorf("cache: memory bandwidth %d invalid", cfg.MemBandwidthBytes)
	}
	if cfg.MemLatencyFirst < 1 || cfg.MemLatencyRest < 0 {
		return nil, fmt.Errorf("cache: memory latencies (%d, %d) invalid", cfg.MemLatencyFirst, cfg.MemLatencyRest)
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.L1I, err = New(cfg.L1I); err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	if h.L1D, err = New(cfg.L1D); err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	if h.L2, err = New(cfg.L2); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if h.ITLB, err = NewTLB(cfg.ITLBEntries, cfg.ITLBAssoc, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("ITLB: %w", err)
	}
	if h.DTLB, err = NewTLB(cfg.DTLBEntries, cfg.DTLBAssoc, cfg.PageBytes); err != nil {
		return nil, fmt.Errorf("DTLB: %w", err)
	}
	return h, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// dramLatency charges a block transfer from DRAM starting at t,
// returning the cycle at which the block is available: first-chunk
// latency plus following-chunk latency for the rest of the L2 block.
//
//pbcheck:hotpath
func (h *Hierarchy) dramLatency(t int64) int64 {
	chunks := (h.L2.BlockBytes() + h.cfg.MemBandwidthBytes - 1) / h.cfg.MemBandwidthBytes
	transfer := int64(h.cfg.MemLatencyFirst)
	if chunks > 1 {
		transfer += int64(chunks-1) * int64(h.cfg.MemLatencyRest)
	}
	h.DRAMAccesses++
	return t + transfer
}

// PrewarmData leaves the data-side hierarchy (DTLB, L1D, L2) as a
// sequential walk of [start, start+size) would, without charging any
// time, emulating the functional-warming phase of a long simulation:
// the measured phase then observes steady-state rather than
// compulsory misses.
// Statistics are not affected. Where a structure is smaller than the
// range, the tail of the range stays resident (LRU order), as after a
// sequential lap of the working set.
func (h *Hierarchy) PrewarmData(start, size uint64) {
	h.prewarm(h.L1D, h.DTLB, start, size)
}

// PrewarmCode is PrewarmData for the instruction side (ITLB, L1I, L2).
func (h *Hierarchy) PrewarmCode(start, size uint64) {
	h.prewarm(h.L1I, h.ITLB, start, size)
}

// prewarm performs the sequential warming lap. Where every structure
// it touches is sweepable, sweep builds each one directly, leaving the
// state walk would leave at a cost bounded by the structure's size:
// the lap touches every L1 block and every page once, so each L1 and
// TLB probe misses and L2 sees every walk point. Otherwise prewarm
// runs walk itself.
//
//pbcheck:hotpath
func (h *Hierarchy) prewarm(l1 *Cache, tlb *TLB, start, size uint64) {
	end := start + size
	if end <= start {
		return // empty, or wraps the address space: the walk touches nothing
	}
	if l1 == h.L2 || !l1.sweepable(l1.blockBits, start, end) ||
		!h.L2.sweepable(h.L2.blockBits, start, end) || !tlb.cache.sweepable(tlb.pageBits, start, end) {
		h.walk(l1, tlb, start, size)
		return
	}
	step := walkStep(uint64(l1.BlockBytes()))
	l1.sweep(l1.blockBits, step, start, end)
	h.L2.sweep(h.L2.blockBits, step, start, end)
	tlb.cache.sweep(tlb.pageBits, walkStep(tlb.PageBytes()), start, end)
}

// walkStep is the stride of the walk over structures of the given
// block or page size: one probe per block, at least 16 bytes apart.
func walkStep(blockBytes uint64) uint64 {
	return max(blockBytes, 16)
}

// walk is the reference lap that sweep reproduces. It advances one L1
// block (and, for the TLB, one page) at a time instead of probing
// every 16-byte chunk: within a sequential lap, intra-block repeat
// accesses always hit the line just filled and only refresh its own
// recency stamp, so skipping them leaves the final tag contents,
// relative recency order, and every later replacement decision
// bit-identical to the fine-grained walk at a small fraction of the
// probes. (The stride never exceeds a block, so no block in the range
// is skipped regardless of alignment; the sub-16-byte guard keeps the
// historical 16-byte floor for degenerate block sizes.) Statistics and
// the DRAM counter are left as they were.
func (h *Hierarchy) walk(l1 *Cache, tlb *TLB, start, size uint64) {
	dram := h.DRAMAccesses
	l1s, l2s, tlbs := l1.stats, h.L2.stats, tlb.cache.stats
	end := start + size
	step := walkStep(uint64(l1.BlockBytes()))
	for addr := start; addr < end; {
		if !l1.Access(addr) {
			h.L2.Access(addr)
		}
		next := (addr/step + 1) * step
		if next <= addr {
			break // address-space wraparound
		}
		addr = next
	}
	pstep := walkStep(tlb.PageBytes())
	for addr := start; addr < end; {
		tlb.Access(addr)
		next := (addr/pstep + 1) * pstep
		if next <= addr {
			break // address-space wraparound
		}
		addr = next
	}
	h.DRAMAccesses = dram
	l1.stats, h.L2.stats, tlb.cache.stats = l1s, l2s, tlbs
}

// InstFetch performs the timing of an instruction-block fetch
// beginning at the given cycle and returns its total latency in
// cycles: ITLB (plus page walk on a miss), L1I, then L2 and DRAM as
// needed.
//
//pbcheck:hotpath
func (h *Hierarchy) InstFetch(addr uint64, cycle int64) int64 {
	t := cycle
	if !h.ITLB.Access(addr) {
		t += int64(h.cfg.ITLBLatency)
	}
	t += int64(h.cfg.L1ILatency)
	if !h.L1I.Access(addr) {
		t += int64(h.cfg.L2Latency)
		if !h.L2.Access(addr) {
			t = h.dramLatency(t)
		}
	}
	return t - cycle
}

// DataAccess performs the timing of a load or store beginning at the
// given cycle and returns its total latency: DTLB (plus walk), L1D,
// then L2 and DRAM. Stores allocate like loads (write-allocate,
// write-back timing model).
//
//pbcheck:hotpath
func (h *Hierarchy) DataAccess(addr uint64, cycle int64) int64 {
	t := cycle
	if !h.DTLB.Access(addr) {
		t += int64(h.cfg.DTLBLatency)
	}
	t += int64(h.cfg.L1DLatency)
	if !h.L1D.Access(addr) {
		t += int64(h.cfg.L2Latency)
		if !h.L2.Access(addr) {
			t = h.dramLatency(t)
		}
	}
	return t - cycle
}
