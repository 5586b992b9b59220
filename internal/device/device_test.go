package device

import (
	"bytes"
	"math"
	"testing"

	"hydra/internal/bus"
	"hydra/internal/cache"
	"hydra/internal/hostos"
	"hydra/internal/race"
	"hydra/internal/sim"
	"hydra/internal/stats"
)

func rig() (*sim.Engine, *hostos.Machine, *bus.Bus, *Device) {
	eng := sim.NewEngine(3)
	host := hostos.New(eng, "host", hostos.PentiumIV())
	b := bus.New(eng, bus.DefaultConfig())
	d := New(eng, host, b, XScaleNIC("nic0"))
	return eng, host, b, d
}

func TestClassMatches(t *testing.T) {
	have := Class{ID: 1, Name: "Network Device", Bus: "pci", MAC: "ethernet", Vendor: "3COM"}
	cases := []struct {
		want Class
		ok   bool
	}{
		{Class{}, true}, // all wildcards
		{Class{Name: "Network Device"}, true},
		{Class{Name: "Network Device", Bus: "pci"}, true},
		{Class{Vendor: "3COM"}, true},
		{Class{ID: 2}, false},
		{Class{Name: "Storage Device"}, false},
		{Class{Bus: "usb"}, false},
		{Class{MAC: "token-ring"}, false},
		{Class{Vendor: "Intel"}, false},
	}
	for i, c := range cases {
		if got := c.want.Matches(have); got != c.ok {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.ok)
		}
	}
}

func TestExecSerialized(t *testing.T) {
	eng, _, _, d := rig()
	var first, second sim.Time
	d.Exec(600_000, func() { first = eng.Now() })  // 1 ms at 600 MHz
	d.Exec(600_000, func() { second = eng.Now() }) // queued
	eng.RunAll()
	if first != sim.Millisecond {
		t.Fatalf("first done at %v", first)
	}
	if second != 2*sim.Millisecond {
		t.Fatalf("second done at %v, want 2ms", second)
	}
	if d.BusyTime() != 2*sim.Millisecond {
		t.Fatalf("busy = %v", d.BusyTime())
	}
}

func TestTimerPrecision(t *testing.T) {
	eng, _, _, d := rig()
	var wakes []float64
	var arm func()
	n := 0
	arm = func() {
		d.Timer(5*sim.Millisecond, func() {
			wakes = append(wakes, eng.Now().Milliseconds())
			n++
			if n < 200 {
				arm()
			}
		})
	}
	arm()
	eng.RunAll()
	gaps := make([]float64, 0, len(wakes)-1)
	for i := 1; i < len(wakes); i++ {
		gaps = append(gaps, wakes[i]-wakes[i-1])
	}
	s := stats.Summarize(gaps)
	if math.Abs(s.Mean-5.0) > 0.05 {
		t.Fatalf("device timer mean gap = %v ms, want ~5", s.Mean)
	}
	// Jitter should be tens of microseconds, far below host tick (1 ms).
	if s.StdDev > 0.1 {
		t.Fatalf("device timer stddev = %v ms, want < 0.1", s.StdDev)
	}
}

func TestPeriodicTimerNoDrift(t *testing.T) {
	eng, _, _, d := rig()
	var times []sim.Time
	tk := d.PeriodicTimer(5*sim.Millisecond, func() {
		times = append(times, eng.Now())
	})
	eng.Run(sim.Second)
	tk.Stop()
	if len(times) < 195 || len(times) > 205 {
		t.Fatalf("got %d firings in 1s, want ~200", len(times))
	}
	// The k-th deadline is k*5ms; firing error must stay bounded (no drift).
	last := times[len(times)-1]
	wantLast := sim.Time(len(times)) * 5 * sim.Millisecond
	drift := float64(last-wantLast) / float64(sim.Millisecond)
	if math.Abs(drift) > 0.5 {
		t.Fatalf("accumulated drift = %vms over %d periods", drift, len(times))
	}
}

func TestLocalMemory(t *testing.T) {
	_, _, _, d := rig()
	a, err := d.AllocMem(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AllocMem(100)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %d %d", a, b)
	}
	if b%16 != 0 {
		t.Fatalf("allocation not aligned: %d", b)
	}
	data := []byte{1, 2, 3, 4}
	if err := d.WriteMem(a, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadMem(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("readback = %v", got)
		}
	}
}

func TestAllocMemExhaustion(t *testing.T) {
	_, _, _, d := rig()
	if _, err := d.AllocMem(d.Config().LocalMemBytes + 1); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	if _, err := d.AllocMem(0); err == nil {
		t.Fatal("zero alloc succeeded")
	}
	if _, err := d.AllocMem(d.Config().LocalMemBytes); err != nil {
		t.Fatalf("full-size alloc failed: %v", err)
	}
	if _, err := d.AllocMem(16); err == nil {
		t.Fatal("alloc after exhaustion succeeded")
	}
}

func TestMemBoundsChecks(t *testing.T) {
	_, _, _, d := rig()
	end := uint64(d.Config().LocalMemBytes)
	if err := d.WriteMem(end-2, []byte{1, 2, 3}); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if _, err := d.ReadMem(end-2, 3); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
}

// Bounds checks hold for addresses and sizes whose sum overflows, and a
// negative read size is an error, not a panic.
func TestMemBoundsOverflow(t *testing.T) {
	_, _, _, d := rig()
	size := uint64(d.Config().LocalMemBytes)
	for _, addr := range []uint64{1 << 63, math.MaxUint64, math.MaxUint64 - 1, size, size + 1} {
		if err := d.WriteMem(addr, []byte{1}); err == nil {
			t.Errorf("WriteMem(%#x, 1 byte) succeeded", addr)
		}
		if _, err := d.ReadMem(addr, 1); err == nil {
			t.Errorf("ReadMem(%#x, 1) succeeded", addr)
		}
	}
	for _, n := range []int{-1, math.MinInt} {
		if _, err := d.ReadMem(0, n); err == nil {
			t.Errorf("ReadMem(0, %d) succeeded", n)
		}
	}
	if _, err := d.ReadMem(16, math.MaxInt); err == nil {
		t.Error("ReadMem(16, MaxInt) succeeded")
	}
	// The edges themselves are in bounds.
	if err := d.WriteMem(size-1, []byte{9}); err != nil {
		t.Fatalf("write of the last byte: %v", err)
	}
	if err := d.WriteMem(size, nil); err != nil {
		t.Fatalf("empty write at the end: %v", err)
	}
	if got, err := d.ReadMem(size-1, 1); err != nil || got[0] != 9 {
		t.Fatalf("read of the last byte = %v, %v", got, err)
	}
}

// Memory is paged on first write: a fresh device holds no pages, reads
// of untouched memory give zeros, writes straddling page boundaries read
// back intact, and a crash restore drops every page.
func TestMemPagedOnFirstWrite(t *testing.T) {
	_, _, _, d := rig()
	allocated := func() int {
		n := 0
		for _, p := range d.mem.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("fresh device holds %d pages", n)
	}
	if got, err := d.ReadMem(0, 3*memPageSize); err != nil || !bytes.Equal(got, make([]byte, 3*memPageSize)) {
		t.Fatalf("untouched memory read %v, %v; want zeros", got[:8], err)
	}
	if n := allocated(); n != 0 {
		t.Fatalf("reading allocated %d pages", n)
	}
	data := make([]byte, 2*memPageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	addr := uint64(5*memPageSize - 50) // spans four pages
	if err := d.WriteMem(addr, data); err != nil {
		t.Fatal(err)
	}
	if n := allocated(); n != 4 {
		t.Fatalf("a write spanning 4 pages allocated %d", n)
	}
	got, err := d.ReadMem(addr-10, len(data)+20)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(make([]byte, 10), data...), make([]byte, 10)...)
	if !bytes.Equal(got, want) {
		t.Fatal("readback across page boundaries differs from what was written")
	}
	d.Hang()
	d.Restore()
	if n := allocated(); n != 4 {
		t.Fatalf("hang restore kept %d of 4 pages", n)
	}
	d.Crash()
	d.Restore()
	if n := allocated(); n != 0 {
		t.Fatalf("crash restore kept %d pages", n)
	}
	if got, _ := d.ReadMem(addr, len(data)); !bytes.Equal(got, make([]byte, len(data))) {
		t.Fatal("crash restore kept memory contents")
	}
}

func TestExports(t *testing.T) {
	_, _, _, d := rig()
	d.Export("hydra.Runtime.GetOffcode", 0x1000)
	ex := d.Exports()
	if ex["hydra.Runtime.GetOffcode"] != 0x1000 {
		t.Fatalf("exports = %v", ex)
	}
	ex["mutate"] = 1 // must not leak into the device
	if _, leaked := d.Exports()["mutate"]; leaked {
		t.Fatal("Exports returned aliased map")
	}
}

func TestDMAToHostInvalidates(t *testing.T) {
	eng, host, _, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	host.L2().ResetStats()

	done := false
	d.DMAToHost(buf, 1024, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("DMA completion not called")
	}
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses; got != 16 {
		t.Fatalf("misses after DMA = %d, want 16 (lines invalidated)", got)
	}
	in, out := d.DMAStats()
	if in != 1024 || out != 0 {
		t.Fatalf("dma stats = %d/%d", in, out)
	}
}

func TestDMAFromHostNoInvalidate(t *testing.T) {
	eng, host, _, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	host.L2().ResetStats()

	d.DMAFromHost(buf, 1024, nil)
	eng.RunAll()
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses; got != 0 {
		t.Fatalf("DMA read invalidated cache: %d misses", got)
	}
}

func TestDMAToPeersSingleTransaction(t *testing.T) {
	eng, host, b, d := rig()
	gpu := New(eng, host, b, Config{
		Name: "gpu0", Class: Class{ID: 3, Name: "Display Device", Bus: "pci"},
		CPUFreqHz: 500e6, LocalMemBytes: 1 << 20,
	})
	disk := New(eng, host, b, Config{
		Name: "disk0", Class: Class{ID: 2, Name: "Storage Device", Bus: "pci"},
		CPUFreqHz: 400e6, LocalMemBytes: 1 << 20,
	})
	before := b.Total().Transactions
	done := false
	d.DMAToPeers([]*Device{gpu, disk}, 1024, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("multicast DMA did not complete")
	}
	if got := b.Total().Transactions - before; got != 1 {
		t.Fatalf("multicast used %d transactions, want 1", got)
	}
}

func TestInterruptHost(t *testing.T) {
	eng, host, _, d := rig()
	fired := false
	d.InterruptHost(2400, func() { fired = true })
	eng.RunAll()
	if !fired {
		t.Fatal("host interrupt not serviced")
	}
	if host.Interrupts() != 1 {
		t.Fatalf("host interrupts = %d", host.Interrupts())
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, _, _, d := rig()
	d.Exec(600e6/2, nil) // 0.5 s busy at 600 MHz
	eng.RunAll()
	eng.Schedule(sim.Second/2, func() {}) // idle until t=1 s
	eng.RunAll()
	// 0.5 s busy at 0.5 W + 0.5 s idle at 0.2 W = 0.35 J.
	e := d.EnergyJoules()
	if math.Abs(e-0.35) > 0.01 {
		t.Fatalf("energy = %v J, want 0.35", e)
	}
}

// --- Failure model ---

func TestCrashDropsWorkAndTimers(t *testing.T) {
	eng, _, _, d := rig()
	var ran, tick int
	d.Exec(600_000, func() { ran++ }) // in flight when the crash hits
	d.Timer(5*sim.Millisecond, func() { ran++ })
	d.PeriodicTimer(sim.Millisecond, func() { tick++ })
	eng.Schedule(500*sim.Microsecond, d.Crash)
	eng.RunAll()
	if ran != 0 {
		t.Fatalf("dead firmware ran %d callbacks", ran)
	}
	if tick != 0 {
		t.Fatalf("dead firmware ticked %d times", tick)
	}
	if d.Health() != HealthCrashed || d.Healthy() {
		t.Fatalf("health = %v", d.Health())
	}
	// Work submitted while crashed is dropped and counted.
	d.Exec(1000, func() { ran++ })
	d.DMAToHost(0, 64, func() { ran++ })
	eng.RunAll()
	if ran != 0 {
		t.Fatal("crashed device executed work")
	}
	if d.DroppedWork() == 0 {
		t.Fatal("dropped work not counted")
	}
	if d.Crashes() != 1 {
		t.Fatalf("crashes = %d", d.Crashes())
	}
}

// A completion armed by firmware that died must not run the continuation
// of a segment queued after Restore — even when the stale completion
// arrives while that segment is still in service.
func TestStaleCompletionAfterRestoreIgnored(t *testing.T) {
	eng, _, _, d := rig()
	var oldRan, newRan int
	var newAt sim.Time
	d.Exec(600_000, func() { oldRan++ }) // 0 → 1 ms; its completion stays armed
	eng.Schedule(200*sim.Microsecond, func() {
		d.Crash()
		d.Restore()
	})
	// 0.9 → 1.1 ms: in service when the dead segment's 1 ms completion fires.
	eng.Schedule(900*sim.Microsecond, func() {
		d.Exec(120_000, func() {
			newRan++
			newAt = eng.Now()
		})
	})
	eng.RunAll()
	if oldRan != 0 {
		t.Fatalf("dead firmware's continuation ran %d times", oldRan)
	}
	if newRan != 1 || newAt != 1100*sim.Microsecond {
		t.Fatalf("restored segment ran %d times, last at %v; want once at 1.1ms", newRan, newAt)
	}
	// The crash, the stale completion (never canceled), the Exec and its
	// completion.
	if eng.Fired != 4 {
		t.Fatalf("engine fired %d events, want 4", eng.Fired)
	}
}

// Steady-state Exec with a prebuilt continuation allocates nothing: the
// segment queue is a value ring and the completion is bound once.
func TestExecSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	eng, _, _, d := rig()
	k := func() {}
	run := func() {
		for i := 0; i < 4; i++ {
			d.Exec(1000, k)
		}
		eng.RunAll()
	}
	run() // grow the queue and the engine's event pool
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("Exec allocates %.1f per round of 4", n)
	}
}

func TestRestoreAfterCrashResetsMemory(t *testing.T) {
	eng, _, _, d := rig()
	addr, err := d.AllocMem(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteMem(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if _, err := d.AllocMem(64); err == nil {
		t.Fatal("allocated on a crashed device")
	}
	d.Restore()
	if !d.Healthy() {
		t.Fatalf("health after restore = %v", d.Health())
	}
	if d.MemUsed() != 0 {
		t.Fatalf("crash restore kept %d bytes allocated", d.MemUsed())
	}
	got, err := d.ReadMem(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("crash restore kept memory contents %v", got)
	}
	// Exports survive (firmware ROM).
	d.Export("sym", 0x100)
	d.Crash()
	d.Restore()
	if d.Exports()["sym"] != 0x100 {
		t.Fatal("exports lost across crash")
	}
	// A restored device executes work again.
	ran := false
	d.Exec(1000, func() { ran = true })
	eng.RunAll()
	if !ran {
		t.Fatal("restored device did not run work")
	}
}

func TestHangPreservesMemory(t *testing.T) {
	_, _, _, d := rig()
	addr, _ := d.AllocMem(16)
	if err := d.WriteMem(addr, []byte{7}); err != nil {
		t.Fatal(err)
	}
	d.Hang()
	if d.Health() != HealthHung {
		t.Fatalf("health = %v", d.Health())
	}
	if d.Hangs() != 1 {
		t.Fatalf("hangs = %d", d.Hangs())
	}
	d.Restore()
	got, _ := d.ReadMem(addr, 1)
	if got[0] != 7 {
		t.Fatal("hang restore lost memory contents")
	}
	if d.MemUsed() == 0 {
		t.Fatal("hang restore lost allocations")
	}
}

func TestStaleTimerDoesNotFireAfterRestore(t *testing.T) {
	eng, _, _, d := rig()
	fired := false
	d.Timer(10*sim.Millisecond, func() { fired = true })
	eng.Schedule(sim.Millisecond, func() { d.Crash(); d.Restore() })
	eng.RunAll()
	if fired {
		t.Fatal("timer armed by dead firmware fired after restore")
	}
}

func TestDMAToHostGatherInvalidatesWholeRange(t *testing.T) {
	eng, host, b, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(2048)
	task.TouchRange(cache.Kernel, buf, 2048)
	eng.RunAll()
	host.L2().ResetStats()
	txBefore := b.Total().Transactions

	done := false
	d.DMAToHostGather(buf, []int{1024, 512, 512}, func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("gather completion not called")
	}
	if tx := b.Total().Transactions - txBefore; tx != 1 {
		t.Fatalf("gather used %d transactions, want 1", tx)
	}
	if segs := b.Total().GatherSegments; segs != 3 {
		t.Fatalf("gather segments = %d, want 3", segs)
	}
	task.TouchRange(cache.Kernel, buf, 2048)
	if got := host.L2().Stats(cache.Kernel).Misses; got != 32 {
		t.Fatalf("misses after gather DMA = %d, want 32 (whole range invalidated)", got)
	}
	in, _ := d.DMAStats()
	if in != 2048 {
		t.Fatalf("gather bytes to host = %d", in)
	}
}

func TestDMAFromHostGatherNoInvalidate(t *testing.T) {
	eng, host, _, d := rig()
	task := host.NewTask("t")
	buf := host.Alloc(1024)
	task.TouchRange(cache.Kernel, buf, 1024)
	eng.RunAll()
	host.L2().ResetStats()

	d.DMAFromHostGather(buf, []int{512, 512}, nil)
	eng.RunAll()
	task.TouchRange(cache.Kernel, buf, 1024)
	if got := host.L2().Stats(cache.Kernel).Misses; got != 0 {
		t.Fatalf("gather read invalidated cache: %d misses", got)
	}
	_, out := d.DMAStats()
	if out != 1024 {
		t.Fatalf("gather bytes from host = %d", out)
	}
}

func TestGatherDMADroppedWhenUnhealthy(t *testing.T) {
	eng, host, _, d := rig()
	buf := host.Alloc(1024)
	d.Crash()
	ran := false
	d.DMAToHostGather(buf, []int{1024}, func() { ran = true })
	d.DMAFromHostGather(buf, []int{1024}, func() { ran = true })
	eng.RunAll()
	if ran {
		t.Fatal("dead device completed a gather DMA")
	}
	if d.DroppedWork() < 2 {
		t.Fatalf("dropped work = %d, want ≥ 2", d.DroppedWork())
	}
}

// FreeMem never drives the ledger negative, and a crash restore bumps the
// memory generation so stale teardown accounting can be recognized.
func TestFreeMemClampAndGeneration(t *testing.T) {
	_, _, _, d := rig()
	gen := d.MemGeneration()
	if _, err := d.AllocMem(1000); err != nil {
		t.Fatal(err)
	}
	live := d.MemLive()
	d.Crash()
	d.Restore() // power-on reset wipes the ledger
	if d.MemGeneration() != gen+1 {
		t.Fatalf("generation = %d, want %d", d.MemGeneration(), gen+1)
	}
	if d.MemLive() != 0 {
		t.Fatalf("MemLive after restore = %d", d.MemLive())
	}
	// A stale free against the wiped ledger clamps instead of going
	// negative.
	d.FreeMem(live)
	if d.MemLive() != 0 {
		t.Fatalf("MemLive after stale free = %d", d.MemLive())
	}
	// Hang + restore preserves memory and the generation.
	if _, err := d.AllocMem(500); err != nil {
		t.Fatal(err)
	}
	d.Hang()
	d.Restore()
	if d.MemGeneration() != gen+1 {
		t.Fatal("hang restore bumped the memory generation")
	}
	if d.MemLive() < 500 {
		t.Fatalf("hang restore lost memory: %d", d.MemLive())
	}
	d.FreeMem(200)
	if got := d.MemLive(); got < 300 || got > 316 {
		t.Fatalf("MemLive after partial free = %d", got)
	}
}
