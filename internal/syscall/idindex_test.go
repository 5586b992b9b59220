package syscall

import (
	"math"
	"math/rand"
	"testing"
)

// fibInverse is the multiplicative inverse of the Fibonacci hash
// constant mod 2^64, so idWithHash can build ids whose hashes — and so
// home slots at every table size — are chosen by the test.
var fibInverse = func() uint64 {
	const phi = 0x9E3779B97F4A7C15
	inv := uint64(phi) // Newton's iteration doubles the correct low bits each step
	for i := 0; i < 6; i++ {
		inv *= 2 - phi*inv
	}
	return inv
}()

func idWithHash(h uint64) uint64 { return h * fibInverse }

// collidingIDs returns n ids whose hashes share their top 16 bits: they
// all have the same home slot in any table of up to 64k slots, so they
// pile into one probe run. top = 0xFFFF puts the run at the end of the
// table, where it wraps around to slot 0.
func collidingIDs(rng *rand.Rand, top uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = idWithHash(top<<48 | rng.Uint64()>>16)
	}
	return ids
}

// checkIndex verifies x against the reference map: same count, every
// reference id present with its value, and every occupied slot holding
// a reference id reachable from its home slot.
func checkIndex(t *testing.T, step int, x *idIndex, ref map[uint64]int32) {
	t.Helper()
	if x.count() != len(ref) {
		t.Fatalf("step %d: count %d, reference %d", step, x.count(), len(ref))
	}
	for id, want := range ref {
		if got, ok := x.get(id); !ok || got != want {
			t.Fatalf("step %d: get(%#x) = %d, %v; want %d", step, id, got, ok, want)
		}
	}
	used := 0
	for i, s := range x.slots {
		if !s.used {
			continue
		}
		used++
		if _, ok := ref[s.id]; !ok {
			t.Fatalf("step %d: slot %d holds deleted id %#x", step, i, s.id)
		}
		if j, ok := x.find(s.id); !ok || j != i {
			t.Fatalf("step %d: id %#x in slot %d is found at %d, %v", step, s.id, i, j, ok)
		}
	}
	if used != len(ref) {
		t.Fatalf("step %d: %d occupied slots, reference %d", step, used, len(ref))
	}
	if x.n > 0 && 2*x.n > len(x.slots) {
		t.Fatalf("step %d: %d ids in %d slots, above half load", step, x.n, len(x.slots))
	}
}

// The index against a Go map under random put/get/delete over a key
// pool holding 0, 2^64-1, two colliding probe runs (one wrapping) and
// random ids, through repeated grows and shrinking phases.
func TestIDIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if h := rng.Uint64(); idWithHash(h)*0x9E3779B97F4A7C15 != h {
		t.Fatal("fibInverse is not the hash constant's inverse")
	}
	pool := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1}
	pool = append(pool, collidingIDs(rng, 0x1234, 40)...)
	pool = append(pool, collidingIDs(rng, 0xFFFF, 40)...)
	for i := 0; i < 600; i++ {
		pool = append(pool, rng.Uint64())
	}
	var x idIndex
	ref := map[uint64]int32{}
	for step := 0; step < 40000; step++ {
		id := pool[rng.Intn(len(pool))]
		// Alternate phases that mostly insert (growing the table) and
		// mostly delete (long probe runs losing members).
		putBias := 3
		if step/5000%2 == 1 {
			putBias = 1
		}
		switch op := rng.Intn(5); {
		case op < putBias:
			v := rng.Int31() - rng.Int31()
			x.put(id, v)
			ref[id] = v
		case op == 3:
			got, ok := x.get(id)
			want, wantOK := ref[id]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: get(%#x) = %d, %v; want %d, %v", step, id, got, ok, want, wantOK)
			}
		default:
			got, ok := x.del(id)
			want, wantOK := ref[id]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: del(%#x) = %d, %v; want %d, %v", step, id, got, ok, want, wantOK)
			}
			delete(ref, id)
		}
		if step%97 == 0 {
			checkIndex(t, step, &x, ref)
		}
	}
	checkIndex(t, -1, &x, ref)
	for id := range ref {
		x.del(id)
		delete(ref, id)
	}
	checkIndex(t, -2, &x, ref)
}

// A long insert/delete stream at a fixed population — the issuer's and
// service's steady state — never grows the table and leaves every
// survivor reachable: backward-shift deletion leaves no tombstones.
func TestIDIndexChurnDoesNotGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x idIndex
	ref := map[uint64]int32{}
	var live []uint64
	next := uint64(0)
	for len(live) < 100 {
		x.put(next, int32(next))
		ref[next] = int32(next)
		live = append(live, next)
		next++
	}
	size := len(x.slots)
	for step := 0; step < 200000; step++ {
		// Retire a random live id, as completions arrive out of order,
		// and admit the next sequence number (sometimes a colliding id).
		k := rng.Intn(len(live))
		if _, ok := x.del(live[k]); !ok {
			t.Fatalf("step %d: live id %#x missing", step, live[k])
		}
		delete(ref, live[k])
		id := next
		if step%7 == 0 {
			id = collidingIDs(rng, 0xFFFF, 1)[0]
		}
		next++
		if _, dup := ref[id]; dup {
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		x.put(id, int32(step))
		ref[id] = int32(step)
		live[k] = id
		if step%4999 == 0 {
			checkIndex(t, step, &x, ref)
		}
	}
	checkIndex(t, -1, &x, ref)
	if len(x.slots) != size {
		t.Fatalf("churn at a fixed population grew the table from %d to %d slots", size, len(x.slots))
	}
}
