// Package cache implements a set-associative, LRU-replacement cache model.
//
// The reproduction uses it as the host L2 (256 kB in the paper's testbed) to
// regenerate Figure 10: the paper measures the *kernel* L2 miss rate under
// each Video Server implementation, normalized to an idle system. What
// drives the figure is data movement — every kernel/user buffer copy walks
// cache lines and evicts the kernel's working set — so a trace-driven model
// that observes the same copies produces the same relative miss rates.
//
// Accesses are attributed to a context (kernel or user) so the experiment can
// report the kernel-only miss rate exactly as the paper does.
package cache

import "math/bits"

// Context labels who performed a memory access.
type Context int

const (
	// Kernel attributes the access to kernel-mode execution.
	Kernel Context = iota
	// User attributes the access to user-mode execution.
	User
	numContexts
)

func (c Context) String() string {
	switch c {
	case Kernel:
		return "kernel"
	case User:
		return "user"
	}
	return "invalid"
}

// Config describes cache geometry.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // cache line size
	Ways      int // associativity
}

// PentiumIVL2 mirrors the paper's testbed: 256 kB, 64 B lines, 8-way.
func PentiumIVL2() Config {
	return Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}
}

// Stats counts accesses per context.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate reports Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is the set-associative model. It is not safe for concurrent use;
// the simulation is single-threaded.
//
// All ways live in one flat slice, Ways entries per set. Each set is kept
// in recency order, most recently used first, and a way holds its line's
// tag plus one, so 0 marks an invalid way. Invalid ways always sit at the
// tail of their set. A hit moves the line to the front; a miss shifts the
// whole set back one place, dropping the last way, and puts the new line in
// front. The dropped way is an invalid one if the set has any, otherwise
// the least recently used line, which is exactly the LRU victim.
type Cache struct {
	cfg      Config
	ways     []uint64
	lineBits uint
	setBits  uint
	setMask  uint64
	lineMask uint64 // line numbers wrap where addresses do
	stats    [numContexts]Stats
}

// New builds a cache with the given geometry. SizeBytes must be a multiple
// of LineBytes*Ways, and the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	numSets := lines / cfg.Ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a non-zero power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		panic("cache: line size must be a power of two")
	}
	setBits := uint(bits.TrailingZeros(uint(numSets)))
	if lineBits+setBits == 0 {
		// Tags would span all 64 bits, leaving no value free to mark an
		// invalid way.
		panic("cache: a one-set cache needs lines of at least 2 bytes")
	}
	return &Cache{
		cfg:      cfg,
		ways:     make([]uint64, numSets*cfg.Ways),
		lineBits: lineBits,
		setBits:  setBits,
		setMask:  uint64(numSets - 1),
		lineMask: ^uint64(0) >> lineBits,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// lineSpan returns the first line number of [addr, addr+size) and the
// number of lines the range covers. size must be positive.
func (c *Cache) lineSpan(addr uint64, size int) (first, n uint64) {
	first = addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	return first, (last-first)&c.lineMask + 1
}

// Touch accesses one address and reports whether it missed.
func (c *Cache) Touch(ctx Context, addr uint64) bool {
	return c.AccessRange(ctx, addr, 1) != 0
}

// AccessRange walks [addr, addr+size) one line at a time, modelling a
// sequential read or write such as a buffer copy. It returns the number of
// misses incurred.
func (c *Cache) AccessRange(ctx Context, addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	st := &c.stats[ctx]
	first, n := c.lineSpan(addr, size)
	var misses uint64
	if c.cfg.Ways == 8 {
		misses = c.walk8(first, n)
	} else {
		misses = c.walk(first, n)
	}
	st.Accesses += n
	st.Misses += misses
	return int(misses)
}

// walk touches the n lines numbered from first and returns the misses.
func (c *Cache) walk(first, n uint64) (misses uint64) {
	ways, nw, setMask, setBits, lineMask := c.ways, c.cfg.Ways, c.setMask, c.setBits, c.lineMask
	for i := uint64(0); i < n; i++ {
		ln := (first + i) & lineMask
		base := int(ln&setMask) * nw
		set := ways[base : base+nw : base+nw]
		key := ln>>setBits + 1
		// Carry each way one place back until the line turns up; if it
		// does not, the last way falls off the end.
		carry, hit := key, false
		for p, v := range set {
			set[p] = carry
			if v == key {
				hit = true
				break
			}
			carry = v
		}
		if !hit {
			misses++
		}
	}
	return misses
}

// walk8 is walk for 8-way sets, the PentiumIVL2 geometry. Loading the set
// up front and open-coding every shift cuts the wall time of the paper's
// TiVoPC experiment by about a quarter against the loops in walk (2-vCPU
// Intel Xeon).
func (c *Cache) walk8(first, n uint64) (misses uint64) {
	ways, setMask, setBits, lineMask := c.ways, c.setMask, c.setBits, c.lineMask
	for i := uint64(0); i < n; i++ {
		ln := (first + i) & lineMask
		base := int(ln&setMask) * 8
		s := (*[8]uint64)(ways[base : base+8])
		key := ln>>setBits + 1
		v0, v1, v2, v3, v4, v5, v6 := s[0], s[1], s[2], s[3], s[4], s[5], s[6]
		switch key {
		case v0:
			continue
		case v1:
			s[1] = v0
		case v2:
			s[1], s[2] = v0, v1
		case v3:
			s[1], s[2], s[3] = v0, v1, v2
		case v4:
			s[1], s[2], s[3], s[4] = v0, v1, v2, v3
		case v5:
			s[1], s[2], s[3], s[4], s[5] = v0, v1, v2, v3, v4
		case v6:
			s[1], s[2], s[3], s[4], s[5], s[6] = v0, v1, v2, v3, v4, v5
		default:
			if s[7] != key {
				misses++
			}
			s[1], s[2], s[3], s[4], s[5], s[6], s[7] = v0, v1, v2, v3, v4, v5, v6
		}
		s[0] = key
	}
	return misses
}

// Stats reports counters for one context.
func (c *Cache) Stats(ctx Context) Stats { return c.stats[ctx] }

// TotalStats reports counters summed across contexts.
func (c *Cache) TotalStats() Stats {
	var t Stats
	for _, s := range c.stats {
		t.Accesses += s.Accesses
		t.Misses += s.Misses
	}
	return t
}

// ResetStats zeroes the counters without disturbing cache contents, so an
// experiment can warm the cache and then measure a steady-state window.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// InvalidateRange drops any lines covering [addr, addr+size) without
// counting accesses. It models non-allocating DMA writes to host memory:
// the device deposits fresh data, so stale cached copies must be discarded
// and the CPU's next read of the data misses.
func (c *Cache) InvalidateRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first, n := c.lineSpan(addr, size)
	nw := c.cfg.Ways
	for i := uint64(0); i < n; i++ {
		ln := (first + i) & c.lineMask
		base := int(ln&c.setMask) * nw
		set := c.ways[base : base+nw : base+nw]
		key := ln>>c.setBits + 1
		for p := range set {
			if set[p] == key {
				// Close the gap so invalid ways stay at the tail.
				copy(set[p:], set[p+1:])
				set[nw-1] = 0
				break
			}
		}
	}
}

// Flush invalidates every line.
func (c *Cache) Flush() { clear(c.ways) }
