package ring

import (
	"testing"

	"hydra/internal/race"
)

// The deque must behave like a slice-backed deque across growth and
// wraparound: PushBack appends, PushFront prepends, PopFront takes the
// head. A seeded mix of operations is checked step by step.
func TestDequeMatchesSlice(t *testing.T) {
	var q Deque[int]
	var ref []int
	x := uint32(1)
	for step := 0; step < 20000; step++ {
		x = x*1664525 + 1013904223
		switch op := x >> 29; {
		case op < 3:
			q.PushBack(step)
			ref = append(ref, step)
		case op < 4:
			q.PushFront(step)
			ref = append([]int{step}, ref...)
		default:
			v, ok := q.PopFront()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: PopFront ok=%v with %d queued", step, ok, len(ref))
			}
			if ok {
				if v != ref[0] {
					t.Fatalf("step %d: popped %d, want %d", step, v, ref[0])
				}
				ref = ref[1:]
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
		}
	}
}

// Popped and reset slots are cleared, so a consumed element is not kept
// reachable by the ring's storage.
func TestDequeClearsSlots(t *testing.T) {
	var q Deque[*int]
	for i := 0; i < 40; i++ {
		v := i
		q.PushBack(&v)
	}
	for i := 0; i < 25; i++ {
		q.PopFront()
	}
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("%d non-nil slots for %d queued elements", live, q.Len())
	}
	q.Reset()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still set after Reset", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len %d after Reset", q.Len())
	}
}

func TestDequeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	var q Deque[func()]
	fn := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			q.PushBack(fn)
		}
		for q.Len() > 0 {
			q.PopFront()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm push/pop allocates %.1f per cycle", n)
	}
}
