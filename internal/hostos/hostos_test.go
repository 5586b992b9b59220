package hostos

import (
	"math"
	"testing"

	"hydra/internal/cache"
	"hydra/internal/sim"
	"hydra/internal/stats"
)

func testMachine() (*sim.Engine, *Machine) {
	eng := sim.NewEngine(7)
	cfg := PentiumIV()
	return eng, New(eng, "host", cfg)
}

func TestCyclesToTime(t *testing.T) {
	_, m := testMachine()
	// 2.4e9 cycles = 1 second.
	if got := m.CyclesToTime(2_400_000_000); got != sim.Second {
		t.Fatalf("CyclesToTime = %v, want 1s", got)
	}
	if got := m.CyclesToTime(2400); got != sim.Microsecond {
		t.Fatalf("CyclesToTime(2400) = %v, want 1us", got)
	}
}

func TestRunAccountsBusyTime(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	done := false
	task.Syscall(2400, func() { done = true }) // 1 µs + context switch
	eng.RunAll()
	if !done {
		t.Fatal("continuation not called")
	}
	wantMin := m.CyclesToTime(2400)
	if m.BusyTime() < wantMin {
		t.Fatalf("busy = %v, want >= %v", m.BusyTime(), wantMin)
	}
	if m.KernelBusyTime() != m.BusyTime() {
		t.Fatalf("kernel busy %v != busy %v for pure syscall", m.KernelBusyTime(), m.BusyTime())
	}
}

func TestSerialCPU(t *testing.T) {
	eng, m := testMachine()
	a := m.NewTask("a")
	b := m.NewTask("b")
	var doneA, doneB sim.Time
	a.Compute(2_400_000, func() { doneA = eng.Now() }) // 1 ms
	b.Compute(2_400_000, func() { doneB = eng.Now() }) // queued behind
	eng.RunAll()
	if doneB <= doneA {
		t.Fatalf("tasks ran concurrently on one CPU: a=%v b=%v", doneA, doneB)
	}
	if doneB < 2*sim.Millisecond {
		t.Fatalf("b done at %v, want >= 2ms", doneB)
	}
}

func TestContextSwitchCharged(t *testing.T) {
	eng, m := testMachine()
	a := m.NewTask("a")
	b := m.NewTask("b")
	a.Compute(1000, nil)
	b.Compute(1000, nil)
	eng.RunAll()
	if m.ContextSwitches() != 2 {
		t.Fatalf("switches = %d, want 2", m.ContextSwitches())
	}
	// Same task twice in a row: only the first dispatch switches.
	eng2, m2 := sim.NewEngine(1), (*Machine)(nil)
	m2 = New(eng2, "h2", PentiumIV())
	c := m2.NewTask("c")
	c.Compute(1000, func() { c.Compute(1000, nil) })
	eng2.RunAll()
	if m2.ContextSwitches() != 1 {
		t.Fatalf("same-task switches = %d, want 1", m2.ContextSwitches())
	}
}

func TestSleepQuantizedToTick(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	var wake sim.Time
	eng.Schedule(100*sim.Microsecond, func() {
		task.Sleep(5*sim.Millisecond, func() { wake = eng.Now() })
	})
	eng.RunAll()
	// now+5ms = 5.1 ms → next tick boundary is 6 ms, plus sched latency.
	if wake < 6*sim.Millisecond {
		t.Fatalf("woke at %v, want >= 6ms tick boundary", wake)
	}
	if wake > 6*sim.Millisecond+500*sim.Microsecond {
		t.Fatalf("woke at %v, sched latency too large", wake)
	}
}

func TestPreciseAfterNotQuantized(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	var at sim.Time
	task.PreciseAfter(1234*sim.Nanosecond, func() { at = eng.Now() })
	eng.RunAll()
	if at != 1234 {
		t.Fatalf("precise wake at %v, want 1234ns", at)
	}
}

func TestInterruptJumpsQueue(t *testing.T) {
	eng, m := testMachine()
	var order []string
	a := m.NewTask("a")
	// Enqueue a long task, then an interrupt while it is queued.
	a.Compute(2_400_000, func() { order = append(order, "task") })
	a.Compute(2_400_000, func() { order = append(order, "task2") })
	m.Interrupt("nic", 2400, func() { order = append(order, "irq") })
	eng.RunAll()
	if len(order) != 3 || order[0] != "irq" && order[1] != "irq" {
		// The first segment is already running; the IRQ must precede task2.
		t.Fatalf("order = %v, want irq before task2", order)
	}
	if m.Interrupts() != 1 {
		t.Fatalf("interrupts = %d", m.Interrupts())
	}
}

func TestCopyTouchesCache(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	src := m.Alloc(4096)
	dst := m.Alloc(4096)
	task.Copy(cache.Kernel, src, dst, 4096, nil)
	eng.RunAll()
	st := m.L2().Stats(cache.Kernel)
	if st.Accesses != 128 { // 64 lines src + 64 lines dst
		t.Fatalf("accesses = %d, want 128", st.Accesses)
	}
	if m.BusyTime() < m.CyclesToTime(m.CopyCycles(4096)) {
		t.Fatal("copy cycles not charged")
	}
}

func TestDMAWriteInvalidates(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	buf := m.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024) // warm: 16 misses
	m.L2().ResetStats()
	task.TouchRange(cache.Kernel, buf, 1024) // resident: 0 misses
	if got := m.L2().Stats(cache.Kernel).Misses; got != 0 {
		t.Fatalf("warm misses = %d, want 0", got)
	}
	m.DMAWrite(buf, 1024)
	m.L2().ResetStats()
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := m.L2().Stats(cache.Kernel).Misses; got != 16 {
		t.Fatalf("post-DMA misses = %d, want 16", got)
	}
	eng.RunAll()
}

func TestAllocAligned(t *testing.T) {
	_, m := testMachine()
	a := m.Alloc(10)
	b := m.Alloc(10)
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("allocations not line-aligned: %d %d", a, b)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
}

func TestIdleLoadBaseline(t *testing.T) {
	eng, m := testMachine()
	startIdleLoad(t, m)
	samp := m.SampleUtilization(5 * sim.Second)
	eng.Run(60 * sim.Second)
	s := stats.Summarize(samp.Samples)
	if s.N < 10 {
		t.Fatalf("too few samples: %d", s.N)
	}
	// Paper's idle row: 2.86% average, small stddev. Accept a band.
	if s.Mean < 2.0 || s.Mean > 4.0 {
		t.Fatalf("idle CPU = %.2f%%, want ≈2.9%%", s.Mean)
	}
	if s.StdDev > 0.5 {
		t.Fatalf("idle CPU stddev = %.3f, want small", s.StdDev)
	}
}

func TestIdleLoadKernelMissRateSteady(t *testing.T) {
	eng, m := testMachine()
	startIdleLoad(t, m)
	samp := m.SampleKernelMissRate(5 * sim.Second)
	eng.Run(60 * sim.Second)
	if len(samp.Samples) < 10 {
		t.Fatalf("too few samples: %d", len(samp.Samples))
	}
	s := stats.Summarize(samp.Samples[1:]) // skip cold-cache window
	if s.Mean <= 0 {
		t.Fatal("idle kernel miss rate is zero; daemons not touching cache")
	}
	if s.StdDev/s.Mean > 0.25 {
		t.Fatalf("idle miss rate unstable: mean=%v stddev=%v", s.Mean, s.StdDev)
	}
}

func TestUtilizationSamplerWindows(t *testing.T) {
	eng, m := testMachine()
	task := m.NewTask("t")
	samp := m.SampleUtilization(10 * sim.Millisecond)
	// 100% busy for the first 10ms window via chained 1ms segments.
	var spin func(n int)
	spin = func(n int) {
		if n == 0 {
			return
		}
		task.Compute(2_400_000, func() { spin(n - 1) })
	}
	spin(10)
	eng.Run(30 * sim.Millisecond)
	if len(samp.Samples) < 2 {
		t.Fatalf("samples = %v", samp.Samples)
	}
	if samp.Samples[0] < 90 {
		t.Fatalf("first window util = %v, want ~100", samp.Samples[0])
	}
	last := samp.Samples[len(samp.Samples)-1]
	if last > 10 {
		t.Fatalf("last window util = %v, want ~0", last)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, float64) {
		eng := sim.NewEngine(11)
		m := New(eng, "host", PentiumIV())
		startIdleLoad(t, m)
		eng.Run(10 * sim.Second)
		return m.BusyTime(), m.L2().Stats(cache.Kernel).MissRate()
	}
	b1, r1 := run()
	b2, r2 := run()
	if b1 != b2 || math.Abs(r1-r2) > 1e-15 {
		t.Fatalf("runs differ: busy %v vs %v, rate %v vs %v", b1, b2, r1, r2)
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	eng := sim.NewEngine(3)
	m := New(eng, "host", PentiumIV())
	if m.LiveBytes() != 0 || m.AllocBytes() != 0 {
		t.Fatalf("fresh machine ledger: live=%d alloc=%d", m.LiveBytes(), m.AllocBytes())
	}
	a := m.Alloc(4096)
	b := m.Alloc(1024)
	if m.AllocBytes() != 5120 || m.LiveBytes() != 5120 {
		t.Fatalf("after allocs: alloc=%d live=%d", m.AllocBytes(), m.LiveBytes())
	}
	// Zero-size allocs (bump-point probes) do not enter the ledger.
	m.Alloc(0)
	if m.AllocBytes() != 5120 {
		t.Fatalf("zero-size alloc counted: %d", m.AllocBytes())
	}
	m.Free(a, 4096)
	if m.LiveBytes() != 1024 {
		t.Fatalf("after free: live=%d", m.LiveBytes())
	}
	m.Free(b, 1024)
	if m.LiveBytes() != 0 {
		t.Fatalf("ledger did not balance: live=%d", m.LiveBytes())
	}
	// Addresses are never reused: a later alloc is above both freed ones.
	if c := m.Alloc(64); c <= b {
		t.Fatalf("allocator reused address space: %#x <= %#x", c, b)
	}
	m.Free(0, 0) // no-op
	if m.LiveBytes() != 64 {
		t.Fatalf("zero-size free changed the ledger: %d", m.LiveBytes())
	}
}
