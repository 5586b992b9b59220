package hostos

import (
	"fmt"

	"hydra/internal/ring"
)

// WorkerPool is a fixed set of kernel worker tasks — the model of a host
// dispatcher goroutine pool. Submitted items run FIFO with at most
// `workers` in service at once; each item receives a dedicated Task for
// its kernel segments and signals completion through done(). On a single
// simulated CPU the pool does not create parallelism — it bounds how many
// dispatched items may interleave their kernel work with the rest of the
// machine, which is exactly the dispatcher-concurrency knob the syscall
// layer needs.
type WorkerPool struct {
	m     *Machine
	idle  []*poolWorker
	queue ring.Deque[func(*Task, func())]

	submitted uint64
	maxQueue  int
}

// poolWorker is one worker task with its completion callback bound once,
// so handing it an item — or the next queued item — allocates nothing.
type poolWorker struct {
	p    *WorkerPool
	t    *Task
	done func()
}

// NewWorkerPool builds a pool of `workers` kernel tasks named
// name/0..n-1. workers < 1 is clamped to 1.
func NewWorkerPool(m *Machine, name string, workers int) *WorkerPool {
	if workers < 1 {
		workers = 1
	}
	p := &WorkerPool{m: m}
	for i := workers - 1; i >= 0; i-- {
		w := &poolWorker{p: p, t: m.NewTask(fmt.Sprintf("%s/%d", name, i))}
		w.done = w.finish
		p.idle = append(p.idle, w)
	}
	return p
}

// Submit queues fn for execution on the next free worker. fn runs with a
// worker Task for charging kernel cycles and MUST call done() exactly once
// when its (possibly asynchronous) work completes; the worker is held
// until then. The done callback is the worker's own and is reused for
// every item it runs.
func (p *WorkerPool) Submit(fn func(t *Task, done func())) {
	p.submitted++
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		fn(w.t, w.done)
		return
	}
	p.queue.PushBack(fn)
	p.maxQueue = max(p.maxQueue, p.queue.Len())
}

// finish hands the worker the next queued item, or returns it to idle.
func (w *poolWorker) finish() {
	p := w.p
	if fn, ok := p.queue.PopFront(); ok {
		fn(w.t, w.done)
		return
	}
	p.idle = append(p.idle, w)
}

// Submitted reports lifetime items accepted by Submit.
func (p *WorkerPool) Submitted() uint64 { return p.submitted }

// QueueDepth reports items waiting for a worker right now.
func (p *WorkerPool) QueueDepth() int { return p.queue.Len() }

// MaxQueueDepth reports the high-water mark of the wait queue.
func (p *WorkerPool) MaxQueueDepth() int { return p.maxQueue }

// IdleWorkers reports workers currently free.
func (p *WorkerPool) IdleWorkers() int { return len(p.idle) }
