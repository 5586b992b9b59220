package hostos

import (
	"testing"
	"unsafe"

	"hydra/internal/race"
)

// The pool bounds concurrency: with 2 workers and 3 items, the third
// waits until a done() frees a worker, and everything runs FIFO.
func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	eng, m := testMachine()
	p := NewWorkerPool(m, "sysd", 2)
	var order []int
	inFlight, maxFlight := 0, 0
	for i := 0; i < 5; i++ {
		i := i
		p.Submit(func(task *Task, done func()) {
			inFlight++
			if inFlight > maxFlight {
				maxFlight = inFlight
			}
			task.Syscall(2400, func() {
				order = append(order, i)
				inFlight--
				done()
			})
		})
	}
	if p.IdleWorkers() != 0 || p.QueueDepth() != 3 {
		t.Fatalf("after submit: idle=%d queue=%d, want 0 and 3", p.IdleWorkers(), p.QueueDepth())
	}
	eng.RunAll()
	if maxFlight != 2 {
		t.Fatalf("max in-flight = %d, want 2", maxFlight)
	}
	if len(order) != 5 {
		t.Fatalf("completed %d items, want 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
	if p.Submitted() != 5 || p.QueueDepth() != 0 || p.IdleWorkers() != 2 {
		t.Fatalf("pool accounting: submitted=%d queue=%d idle=%d", p.Submitted(), p.QueueDepth(), p.IdleWorkers())
	}
	if p.MaxQueueDepth() != 3 {
		t.Fatalf("MaxQueueDepth = %d, want 3", p.MaxQueueDepth())
	}
}

// funcID identifies a func value's closure object, so a test can tell
// one bound callback reused from a fresh one per call.
func funcID(fn func()) uintptr { return *(*uintptr)(unsafe.Pointer(&fn)) }

func TestWorkerPoolReusesWorkerDone(t *testing.T) {
	eng, m := testMachine()
	p := NewWorkerPool(m, "w", 1)
	seen := map[uintptr]int{}
	tasks := map[*Task]bool{}
	for i := 0; i < 50; i++ {
		p.Submit(func(t *Task, done func()) {
			seen[funcID(done)]++
			tasks[t] = true
			t.Syscall(100, done)
		})
	}
	eng.RunAll()
	if len(seen) != 1 || len(tasks) != 1 {
		t.Fatalf("one worker ran 50 items with %d distinct done callbacks on %d tasks; want 1 and 1",
			len(seen), len(tasks))
	}
}

// Submitting a prebuilt item — to an idle worker, and through the wait
// queue from one item to the next — allocates nothing once warm.
func TestWorkerPoolSubmitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	eng, m := testMachine()
	p := NewWorkerPool(m, "w", 1)
	item := func(t *Task, done func()) { t.Syscall(100, done) }
	run := func() {
		for i := 0; i < 8; i++ {
			p.Submit(item)
		}
		eng.RunAll()
	}
	run() // grow the wait queue, the run queue and the event pool
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("Submit allocates %.1f per round of 8", n)
	}
}
