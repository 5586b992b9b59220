package hostos

import (
	"fmt"
	"math/bits"

	"hydra/internal/cache"
)

// The host L2 model runs beside the event loop. A machine does not walk
// its cache when a task copies, touches or receives DMA; it appends the
// operation to an ordered log. Once the log covers l2BatchLines cache
// lines it is handed to a goroutine that applies it to the cache while the
// engine keeps simulating. Only the cache's counters are ever read back,
// and only after the log is drained, so the cache sees the same operations
// in the same order as a synchronous walk and every result is unchanged.
const (
	// l2BatchLines is the logged work, in cache lines, at which the log
	// is handed off: about 100 µs of walking, enough to bury the cost of
	// starting and joining the goroutine that walks it.
	l2BatchLines = 16 << 10
	// l2InlineLines bounds the operations applied straight to the cache
	// when nothing is logged or in flight. Machines whose cache traffic is
	// light never start a log, so they pay neither the hand-off nor the
	// log's memory.
	l2InlineLines = 64
)

// l2Invalidate marks a logged InvalidateRange; a logged access carries its
// cache.Context instead.
const l2Invalidate cache.Context = -1

// l2op is one logged cache operation.
type l2op struct {
	addr uint64
	size int
	ctx  cache.Context
}

// l2pipe owns a machine's cache model and its operation log. Every method
// runs on the engine's goroutine; the cache is touched elsewhere only by
// the batch in flight.
type l2pipe struct {
	c        *cache.Cache
	lineBits uint
	log      []l2op // operations not yet handed off, in program order
	lines    int    // cache lines the log covers
	batch    []l2op // the batch in flight; a spare buffer when idle
	busy     bool   // a batch is in flight
	done     chan struct{}
	applyFn  func() // bound once, so starting a batch allocates nothing
}

func (p *l2pipe) init(cfg cache.Config) {
	p.c = cache.New(cfg) // checks LineBytes is a power of two
	p.lineBits = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	p.done = make(chan struct{}, 1)
	p.applyFn = func() {
		applyL2(p.c, p.batch)
		p.done <- struct{}{}
	}
}

// access logs a walk of [addr, addr+size) attributed to ctx. A bad context
// panics here, on the caller's goroutine, rather than in the batch.
func (p *l2pipe) access(ctx cache.Context, addr uint64, size int) {
	if ctx != cache.Kernel && ctx != cache.User {
		panic(fmt.Sprintf("hostos: invalid cache context %d", int(ctx)))
	}
	p.add(l2op{addr: addr, size: size, ctx: ctx})
}

// invalidate logs the invalidation of the lines covering [addr, addr+size).
func (p *l2pipe) invalidate(addr uint64, size int) {
	p.add(l2op{addr: addr, size: size, ctx: l2Invalidate})
}

func (p *l2pipe) add(op l2op) {
	if op.size <= 0 {
		return
	}
	mask := uint64(1)<<p.lineBits - 1
	n := int((op.addr&mask + uint64(op.size) + mask) >> p.lineBits)
	if !p.busy && len(p.log) == 0 && n < l2InlineLines {
		op.apply(p.c)
		return
	}
	p.log = append(p.log, op)
	if p.lines += n; p.lines >= l2BatchLines {
		p.wait()
		p.log, p.batch = p.batch[:0], p.log
		p.lines = 0
		p.busy = true
		go p.applyFn()
	}
}

// wait blocks until the batch in flight, if any, has been applied. The
// engine waits here when it logs a full batch before the previous one is
// done, so the log never grows past one batch.
func (p *l2pipe) wait() {
	if p.busy {
		<-p.done
		p.busy = false
	}
}

// drain applies every logged operation and returns the cache, which is then
// quiescent until the next logged operation.
func (p *l2pipe) drain() *cache.Cache {
	p.wait()
	applyL2(p.c, p.log)
	p.log = p.log[:0]
	p.lines = 0
	return p.c
}

func applyL2(c *cache.Cache, ops []l2op) {
	for _, op := range ops {
		op.apply(c)
	}
}

func (op l2op) apply(c *cache.Cache) {
	if op.ctx == l2Invalidate {
		c.InvalidateRange(op.addr, op.size)
	} else {
		c.AccessRange(op.ctx, op.addr, op.size)
	}
}
