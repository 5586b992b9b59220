package syscall

import (
	"encoding/binary"
	"slices"
	"testing"

	"hydra/internal/call"
	"hydra/internal/sim"
)

// recordArrivals wraps the service's request handler so the test sees
// the sequence number of every request in the order it reaches the host.
func recordArrivals(r *rig) *[]uint64 {
	var seqs []uint64
	r.hend.InstallCallHandler(func(data []byte) {
		if c, err := call.Unmarshal(data); err == nil {
			seqs = append(seqs, idSeq(c.ReturnDesc))
		}
		r.svc.onRequest(data)
	})
	return &seqs
}

// A restored issuer re-sends its in-flight calls in sequence order, so
// the host sees them in the order the device issued them — every trial.
func TestReissueInSequenceOrder(t *testing.T) {
	const calls = 24
	for trial := 0; trial < 8; trial++ {
		// Issue on one rig and snapshot before anything runs; restore on
		// a second rig whose host sees only the reissued copies.
		src := newRig(t, DefaultProfile(), nil)
		for j := 0; j < calls; j++ {
			if err := src.iss.Log("pending", ModeAsync); err != nil {
				t.Fatal(err)
			}
		}
		ck := src.iss.Checkpoint()

		dst := newRig(t, DefaultProfile(), nil)
		arrivals := recordArrivals(dst)
		iss := NewIssuer(dst.disk, DefaultProfile(), nil)
		if err := iss.Restore(ck); err != nil {
			t.Fatal(err)
		}
		completed := 0
		iss.SetDefaultHandler(func(*Completion) { completed++ })
		iss.Attach(dst.dend)
		dst.eng.RunAll()

		if completed != calls || len(*arrivals) != calls {
			t.Fatalf("trial %d: %d completions, %d host arrivals; want %d each", trial, completed, len(*arrivals), calls)
		}
		if !slices.IsSorted(*arrivals) {
			t.Fatalf("trial %d: reissued calls reached the host in order %v", trial, *arrivals)
		}
		if got := checkpointSeqs(ck); !slices.IsSorted(got) || len(got) != calls {
			t.Fatalf("trial %d: checkpoint order %v", trial, got)
		}
	}
}

// checkpointSeqs lists the sequence numbers of a checkpoint's entries.
func checkpointSeqs(ck []byte) []uint64 {
	var seqs []uint64
	for b := ck[13:]; len(b) >= 21; {
		seqs = append(seqs, idSeq(binary.LittleEndian.Uint64(b)))
		b = b[21+int(binary.LittleEndian.Uint32(b[17:])):]
	}
	return seqs
}

// The hot-swap race: the original request's completion is already
// queued on the device when the restored issuer posts its reissue, so
// the call completes — and its record retires — while the reissue still
// waits in the outbox. A call issued from the completion must get a
// buffer of its own: the queued reissue goes out as itself, not as the
// new call's bytes.
func TestReissueQueuedBehindCompletion(t *testing.T) {
	r := newRig(t, DefaultProfile(), nil)
	arrivals := recordArrivals(r)
	if err := r.iss.Clock(ModeAsync, func(sim.Time, error) { t.Fatal("completed on the sealed issuer") }); err != nil {
		t.Fatal(err)
	}
	// Run until the host has executed the call, then occupy the firmware
	// so the reply's delivery queues behind the long segment.
	for r.svc.Stats().Executed == 0 {
		if !r.eng.Step() {
			t.Fatal("clock call never executed")
		}
	}
	r.disk.Exec(4_000_000, nil) // 10 ms at 400 MHz
	r.eng.Run(r.eng.Now() + 5*sim.Millisecond)

	ck := r.iss.Checkpoint()
	iss := NewIssuer(r.disk, DefaultProfile(), nil)
	if err := iss.Restore(ck); err != nil {
		t.Fatal(err)
	}
	var order []string
	iss.SetDefaultHandler(func(c *Completion) {
		order = append(order, "restored clock")
		// Issued while the reissue is still queued: it must not take
		// over the retired record's buffer.
		if err := iss.Log("after", ModeAsync); err != nil {
			t.Fatal(err)
		}
	})
	iss.Attach(r.dend) // the reissue queues behind the reply's delivery
	r.eng.RunAll()

	if len(order) != 1 {
		t.Fatalf("restored clock completed %d times, want 1", len(order))
	}
	// Host arrivals: the original clock call, its reissue, the log call.
	want := []uint64{1, 1, 2}
	if !slices.Equal(*arrivals, want) {
		t.Fatalf("host saw sequence numbers %v, want %v", *arrivals, want)
	}
	st, hs := iss.Stats(), r.svc.Stats()
	if st.Reissued != 1 || st.Completed != 2 || st.Orphaned != 1 {
		t.Fatalf("issuer stats = %+v", st)
	}
	if hs.Executed != 2 || hs.Deduped != 1 || r.vfs.LogLines() != 1 {
		t.Fatalf("service stats = %+v, log lines %d", hs, r.vfs.LogLines())
	}
	if iss.InFlight() != 0 {
		t.Fatalf("in-flight = %d", iss.InFlight())
	}
}

// The reply cache holds the last replyCacheSize replies in finish order:
// a duplicate of the newest evicted call executes again, a duplicate of
// the oldest cached one is answered from the cache, and a duplicate of
// a call still in the dispatcher is dropped.
func TestReplyCacheEvictsInFinishOrder(t *testing.T) {
	// One dispatcher worker: calls finish in sequence order.
	r := newRig(t, Profile{Batch: 8, Coalesce: 5 * sim.Microsecond, Credits: 64, Workers: 1}, nil)
	const extra = 10
	issued := 0
	for issued < replyCacheSize+extra {
		for issued < replyCacheSize+extra && r.iss.Log("x", ModeAsync) == nil {
			issued++
		}
		r.eng.RunAll()
	}
	dup := func(seq uint64) {
		wire, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: "log", Args: []any{"x"}, ReturnDesc: packID(seq, ModeAsync)})
		if err != nil {
			t.Fatal(err)
		}
		r.svc.onRequest(wire)
	}
	check := func(what string, executed, deduped, replies uint64) {
		t.Helper()
		if hs := r.svc.Stats(); hs.Executed != executed || hs.Deduped != deduped || hs.RepliesSent != replies {
			t.Fatalf("%s: service stats = %+v, want executed %d deduped %d replies %d", what, hs, executed, deduped, replies)
		}
	}
	n := uint64(replyCacheSize + extra)
	check("after the run", n, 0, n)
	dup(extra + 1) // oldest cached
	r.eng.RunAll()
	check("duplicate of the oldest cached call", n, 1, n+1)
	dup(extra) // newest evicted: runs again, evicting extra+1
	dup(extra) // and is in the dispatcher when this copy arrives
	r.eng.RunAll()
	check("duplicates of the newest evicted call", n+1, 2, n+2)
	dup(extra + 1)
	r.eng.RunAll()
	check("duplicate of the call evicted by the re-execution", n+2, 2, n+3)
	if got := r.iss.Stats().Orphaned; got != 3 {
		t.Fatalf("issuer orphaned %d duplicate replies, want 3", got)
	}
}
