// Package ring provides Deque, the growable ring buffer behind the
// simulator's FIFO work queues (the host run queue, the device firmware
// queue, the dispatcher pool's wait queue). Once grown to its working
// depth a Deque allocates nothing, and every popped slot is cleared so a
// consumed element's closures and payloads are not kept reachable.
package ring

// Deque is a double-ended FIFO ring. The zero value is empty and ready.
type Deque[T any] struct {
	buf        []T // power-of-two length
	head, tail int // monotonically increasing; index = i & (len(buf)-1)
}

// Len reports the number of queued elements.
func (q *Deque[T]) Len() int { return q.tail - q.head }

func (q *Deque[T]) grow() {
	n := max(2*len(q.buf), 16)
	nb := make([]T, n)
	for i := q.head; i < q.tail; i++ {
		nb[i&(n-1)] = q.buf[i&(len(q.buf)-1)]
	}
	q.buf = nb
}

// PushBack appends v at the tail.
func (q *Deque[T]) PushBack(v T) {
	if q.Len() == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&(len(q.buf)-1)] = v
	q.tail++
}

// PushFront inserts v at the head, ahead of everything queued.
func (q *Deque[T]) PushFront(v T) {
	if q.Len() == len(q.buf) {
		q.grow()
	}
	q.head--
	q.buf[q.head&(len(q.buf)-1)] = v
}

// PopFront removes and returns the head element; ok is false when the
// deque is empty.
func (q *Deque[T]) PopFront() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	i := q.head & (len(q.buf) - 1)
	v = q.buf[i]
	var zero T
	q.buf[i] = zero
	q.head++
	return v, true
}

// Reset drops every queued element, keeping the storage.
func (q *Deque[T]) Reset() {
	clear(q.buf)
	q.head, q.tail = 0, 0
}
