package syscall

import (
	"testing"

	"hydra/internal/race"
)

// clockRounds issues n async clock syscalls, up to the credit limit at a
// time, and runs the plane until all of them complete.
func clockRounds(tb testing.TB, r *rig, n int) {
	issued, done := 0, 0
	k := func(*Completion) { done++ }
	for done < n {
		before := done
		for issued < n && r.iss.Issue(OpClock, ModeAsync, nil, k) == nil {
			issued++
		}
		r.eng.RunAll()
		if done == before {
			tb.Fatalf("no progress after %d of %d completions", done, n)
		}
	}
}

// roundTripAllocs pins the heap allocations of one warm async clock
// syscall, device issue to device completion. What remains: the request
// wire (Marshal), the device's DMA-to-host completion closure, the boxed
// clock value on the host, the reply wire (MarshalReply) and the boxed
// clock value decoded on the device.
const roundTripAllocs = 5

func TestClockRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	r := newRig(t, DefaultProfile(), nil)
	clockRounds(t, r, 256) // warm every pool and free list on the path
	done := 0
	k := func(*Completion) { done++ }
	got := testing.AllocsPerRun(200, func() {
		if err := r.iss.Issue(OpClock, ModeAsync, nil, k); err != nil {
			t.Fatal(err)
		}
		r.eng.RunAll()
	})
	if done != 201 {
		t.Fatalf("%d of 201 clock syscalls completed", done)
	}
	if got > roundTripAllocs {
		t.Fatalf("one clock syscall round trip allocates %.2f, pinned at %d", got, roundTripAllocs)
	}
}

func BenchmarkSyscallRoundTrip(b *testing.B) {
	r := newRig(b, DefaultProfile(), nil)
	clockRounds(b, r, 256)
	b.ReportAllocs()
	b.ResetTimer()
	clockRounds(b, r, b.N)
}
