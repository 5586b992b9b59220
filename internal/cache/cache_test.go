package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B cache.
	return New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if !c.Touch(Kernel, 0) {
		t.Fatal("first access should miss")
	}
	if c.Touch(Kernel, 0) {
		t.Fatal("second access should hit")
	}
	if c.Touch(Kernel, 63) {
		t.Fatal("same-line access should hit")
	}
	if !c.Touch(Kernel, 64) {
		t.Fatal("next-line access should miss")
	}
	st := c.Stats(Kernel)
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets; addresses 0, 256, 512 map to set 0 (stride 4*64)
	c.Touch(Kernel, 0)
	c.Touch(Kernel, 256)
	c.Touch(Kernel, 0)   // make line 0 most recent
	c.Touch(Kernel, 512) // evicts 256 (LRU), not 0
	if c.Touch(Kernel, 0) {
		t.Fatal("line 0 was evicted but was most recently used")
	}
	if !c.Touch(Kernel, 256) {
		t.Fatal("line 256 should have been evicted")
	}
}

func TestContextsSeparate(t *testing.T) {
	c := small()
	c.Touch(Kernel, 0)
	c.Touch(User, 1024)
	if c.Stats(Kernel).Accesses != 1 || c.Stats(User).Accesses != 1 {
		t.Fatalf("kernel=%+v user=%+v", c.Stats(Kernel), c.Stats(User))
	}
	tot := c.TotalStats()
	if tot.Accesses != 2 || tot.Misses != 2 {
		t.Fatalf("total = %+v", tot)
	}
}

func TestAccessRange(t *testing.T) {
	c := small()
	misses := c.AccessRange(User, 0, 256) // 4 lines
	if misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
	if got := c.Stats(User).Accesses; got != 4 {
		t.Fatalf("accesses = %d, want 4", got)
	}
	// Unaligned range spanning two lines.
	misses = c.AccessRange(User, 1000, 80)
	if misses != 2 {
		t.Fatalf("unaligned misses = %d, want 2", misses)
	}
	if c.AccessRange(User, 0, 0) != 0 {
		t.Fatal("zero-size range should not access")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := small()
	c.Touch(Kernel, 0)
	c.ResetStats()
	if c.Stats(Kernel).Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if c.Touch(Kernel, 0) {
		t.Fatal("contents were flushed by ResetStats")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Touch(Kernel, 0)
	c.Flush()
	if !c.Touch(Kernel, 0) {
		t.Fatal("flush did not invalidate")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("zero-access miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2},
		{SizeBytes: 512, LineBytes: 0, Ways: 2},
		{SizeBytes: 512, LineBytes: 64, Ways: 0},
		{SizeBytes: 512, LineBytes: 60, Ways: 2}, // line not power of two
		{SizeBytes: 576, LineBytes: 64, Ways: 3}, // sets=3, not power of two
		{SizeBytes: 64, LineBytes: 64, Ways: 2},  // zero sets
		{SizeBytes: 8, LineBytes: 1, Ways: 8},    // one set of 1-byte lines
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d (%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPentiumIVL2(t *testing.T) {
	c := New(PentiumIVL2())
	if c.Config().SizeBytes != 256<<10 {
		t.Fatalf("L2 size = %d", c.Config().SizeBytes)
	}
	// Working set fitting in cache: second pass is all hits.
	c.AccessRange(Kernel, 0, 128<<10)
	c.ResetStats()
	c.AccessRange(Kernel, 0, 128<<10)
	if got := c.Stats(Kernel).MissRate(); got != 0 {
		t.Fatalf("resident working set missed: rate=%v", got)
	}
	// Streaming working set far larger than cache: ~100% misses.
	c.ResetStats()
	c.AccessRange(Kernel, 1<<30, 4<<20)
	if got := c.Stats(Kernel).MissRate(); got < 0.99 {
		t.Fatalf("streaming miss rate = %v, want ~1", got)
	}
}

// Property: hits + misses == accesses, and miss rate is within [0, 1].
func TestAccountingProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			c.Touch(User, uint64(a))
		}
		st := c.Stats(User)
		if st.Accesses != uint64(len(addrs)) {
			return false
		}
		r := st.MissRate()
		return r >= 0 && r <= 1 && st.Misses <= st.Accesses
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (inclusion): immediately re-touching the same address always hits.
func TestRetouchProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		c := small()
		for _, a := range addrs {
			c.Touch(User, uint64(a))
			if c.Touch(User, uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateRangeCountsNoAccesses(t *testing.T) {
	c := small()
	c.AccessRange(Kernel, 0, 256)
	before := c.TotalStats()
	c.InvalidateRange(0, 256)
	c.InvalidateRange(4096, 64) // not resident
	c.InvalidateRange(0, 0)
	if got := c.TotalStats(); got != before {
		t.Fatalf("InvalidateRange changed stats: %+v -> %+v", before, got)
	}
}

func TestInvalidateRangeNextTouchMisses(t *testing.T) {
	c := small()
	c.AccessRange(Kernel, 0, 256) // lines 0..3, one per set
	c.InvalidateRange(70, 10)     // inside line 1 only
	if !c.Touch(Kernel, 64) {
		t.Fatal("invalidated line hit")
	}
	for _, addr := range []uint64{0, 128, 192} {
		if c.Touch(Kernel, addr) {
			t.Fatalf("address %d outside the invalidated range missed", addr)
		}
	}
}

func TestInvalidateRangeFreesWay(t *testing.T) {
	c := small() // 0, 256 and 512 all map to set 0
	c.Touch(Kernel, 0)
	c.Touch(Kernel, 256) // set 0 full; 0 is LRU
	c.InvalidateRange(256, 64)
	if !c.Touch(Kernel, 512) {
		t.Fatal("new line hit")
	}
	// The miss filled the freed way, so the LRU line survived.
	if c.Touch(Kernel, 0) {
		t.Fatal("LRU line was evicted although an invalid way was free")
	}
	if c.Touch(Kernel, 512) {
		t.Fatal("filled line was lost")
	}
}

// TestMatchesReferenceModel drives Cache and refCache through the same
// random scripts and demands identical results after every step.
func TestMatchesReferenceModel(t *testing.T) {
	geometries := []Config{
		{SizeBytes: 256, LineBytes: 64, Ways: 1},   // direct-mapped, 4 sets
		{SizeBytes: 512, LineBytes: 64, Ways: 2},   // small()
		{SizeBytes: 2048, LineBytes: 64, Ways: 8},  // 4 sets of 8
		{SizeBytes: 4096, LineBytes: 64, Ways: 16}, // 4 sets of 16
		PentiumIVL2(),
	}
	for _, cfg := range geometries {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%dB_%dway_seed%d", cfg.SizeBytes, cfg.Ways, seed), func(t *testing.T) {
				checkAgainstReference(t, cfg, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	got, want := New(cfg), newRef(cfg)
	// Addresses come from a region a few times the cache size, so sets see
	// hits, capacity misses and evictions alike.
	region := uint64(4 * cfg.SizeBytes)
	addr := func() uint64 { return uint64(rng.Int63n(int64(region))) }
	size := func() int {
		if rng.Intn(4) == 0 {
			return rng.Intn(3*cfg.SizeBytes) - 8 // long ranges, a few empty
		}
		return rng.Intn(4*cfg.LineBytes) + 1 // short, mostly unaligned
	}
	ctx := func() Context { return Context(rng.Intn(int(numContexts))) }
	for step := 0; step < 2000; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 45:
			cx, a := ctx(), addr()
			op = fmt.Sprintf("Touch(%v, %d)", cx, a)
			if g, w := got.Touch(cx, a), want.Touch(cx, a); g != w {
				t.Fatalf("step %d %s = %v, reference %v", step, op, g, w)
			}
		case r < 80:
			cx, a, n := ctx(), addr(), size()
			op = fmt.Sprintf("AccessRange(%v, %d, %d)", cx, a, n)
			if g, w := got.AccessRange(cx, a, n), want.AccessRange(cx, a, n); g != w {
				t.Fatalf("step %d %s = %d, reference %d", step, op, g, w)
			}
		case r < 97:
			a, n := addr(), size()
			op = fmt.Sprintf("InvalidateRange(%d, %d)", a, n)
			got.InvalidateRange(a, n)
			want.InvalidateRange(a, n)
		case r < 98:
			op = "Flush()"
			got.Flush()
			want.Flush()
		default:
			op = "ResetStats()"
			got.ResetStats()
			want.ResetStats()
		}
		for _, cx := range []Context{Kernel, User} {
			if g, w := got.Stats(cx), want.Stats(cx); g != w {
				t.Fatalf("step %d %s: Stats(%v) = %+v, reference %+v", step, op, cx, g, w)
			}
		}
		if g, w := got.TotalStats(), want.TotalStats(); g != w {
			t.Fatalf("step %d %s: TotalStats() = %+v, reference %+v", step, op, g, w)
		}
	}
}

type refLine struct {
	valid bool
	tag   uint64
	lru   uint64 // last-touch stamp; larger is more recent
}

// refCache is the stamp-based LRU model that Cache replaced, kept verbatim
// (names aside) as the oracle for TestMatchesReferenceModel. Each way
// carries a valid bit and the global stamp of its last touch; a miss fills
// an invalid way if the set has one, else the way with the smallest stamp.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	numSets  int
	lineBits uint
	setMask  uint64
	stamp    uint64
	stats    [numContexts]Stats
}

// newRef builds a reference cache with the given geometry. SizeBytes must be a multiple
// of LineBytes*Ways, and the set count must be a power of two.
func newRef(cfg Config) *refCache {
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
	sets := make([][]refLine, numSets)
	backing := make([]refLine, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{
		cfg:      cfg,
		sets:     sets,
		numSets:  numSets,
		lineBits: lineBits,
		setMask:  uint64(numSets - 1),
	}
}

// Config returns the cache geometry.
func (c *refCache) Config() Config { return c.cfg }

// Touch accesses one address and reports whether it missed.
func (c *refCache) Touch(ctx Context, addr uint64) bool {
	c.stamp++
	lineAddr := addr >> c.lineBits
	setIdx := lineAddr & c.setMask
	tag := lineAddr >> uint64(refBitsFor(c.numSets))
	set := c.sets[setIdx]

	st := &c.stats[ctx]
	st.Accesses++

	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			return false // hit
		}
		if !set[i].valid {
			victim = i
			victimLRU = 0
		} else if set[i].lru < victimLRU {
			victim = i
			victimLRU = set[i].lru
		}
	}
	set[victim] = refLine{valid: true, tag: tag, lru: c.stamp}
	st.Misses++
	return true
}

// AccessRange walks [addr, addr+size) one line at a time, modelling a
// sequential read or write such as a buffer copy. It returns the number of
// misses incurred.
func (c *refCache) AccessRange(ctx Context, addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	misses := 0
	lineSize := uint64(c.cfg.LineBytes)
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(size) - 1) &^ (lineSize - 1)
	for a := first; ; a += lineSize {
		if c.Touch(ctx, a) {
			misses++
		}
		if a == last {
			break
		}
	}
	return misses
}

// Stats reports counters for one context.
func (c *refCache) Stats(ctx Context) Stats { return c.stats[ctx] }

// TotalStats reports counters summed across contexts.
func (c *refCache) TotalStats() Stats {
	var t Stats
	for _, s := range c.stats {
		t.Accesses += s.Accesses
		t.Misses += s.Misses
	}
	return t
}

// ResetStats zeroes the counters without disturbing cache contents, so an
// experiment can warm the cache and then measure a steady-state window.
func (c *refCache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// InvalidateRange drops any lines covering [addr, addr+size) without
// counting accesses. It models non-allocating DMA writes to host memory:
// the device deposits fresh data, so stale cached copies must be discarded
// and the CPU's next read of the data misses.
func (c *refCache) InvalidateRange(addr uint64, size int) {
	if size <= 0 {
		return
	}
	lineSize := uint64(c.cfg.LineBytes)
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(size) - 1) &^ (lineSize - 1)
	for a := first; ; a += lineSize {
		lineAddr := a >> c.lineBits
		setIdx := lineAddr & c.setMask
		tag := lineAddr >> uint64(refBitsFor(c.numSets))
		set := c.sets[setIdx]
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				set[i] = refLine{}
			}
		}
		if a == last {
			break
		}
	}
}

// Flush invalidates every line.
func (c *refCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
}

func refBitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
