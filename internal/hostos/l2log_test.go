package hostos

import (
	"errors"
	"math/rand"
	"testing"

	"hydra/internal/cache"
)

func startIdleLoad(t testing.TB, m *Machine) *IdleLoad {
	t.Helper()
	il, err := m.StartIdleLoad(DefaultIdleLoad())
	if err != nil {
		t.Fatal(err)
	}
	return il
}

func TestIdleLoadValidate(t *testing.T) {
	if err := DefaultIdleLoad().Validate(); err != nil {
		t.Fatalf("DefaultIdleLoad: %v", err)
	}
	if err := (IdleLoadConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (no daemons): %v", err)
	}
	for _, c := range []struct {
		field string
		edit  func(*IdleLoadConfig)
	}{
		{"Daemons", func(c *IdleLoadConfig) { c.Daemons = -1 }},
		{"Period", func(c *IdleLoadConfig) { c.Period = 0 }},
		{"CycleJitterFrac", func(c *IdleLoadConfig) { c.CycleJitterFrac = 2 }},
		{"CycleJitterFrac", func(c *IdleLoadConfig) { c.CycleJitterFrac = -0.1 }},
		{"KernelFraction", func(c *IdleLoadConfig) { c.KernelFraction = 1.5 }},
		{"ResidentBytes", func(c *IdleLoadConfig) { c.ResidentBytes = -1 }},
		{"StreamBytes", func(c *IdleLoadConfig) { c.StreamBytes = -1 }},
		{"StreamRegion", func(c *IdleLoadConfig) { c.StreamRegion = c.StreamBytes }},
		{"StreamRegion", func(c *IdleLoadConfig) { c.StreamBytes, c.StreamRegion = 0, -1 }},
	} {
		cfg := DefaultIdleLoad()
		c.edit(&cfg)
		_, m := testMachine()
		il, err := m.StartIdleLoad(cfg)
		var ie *IdleLoadError
		if !errors.As(err, &ie) || ie.Field != c.field || il != nil {
			t.Errorf("%+v: StartIdleLoad = %v, %v; want an *IdleLoadError on %s", cfg, il, err, c.field)
		}
	}
}

// TestL2LogMatchesCache drives random scripts of copies, touches, DMA
// writes, counter resets and counter reads through a machine and replays
// each on a plain cache.Cache, comparing every context's counters at every
// read. The read rate varies per script, so drains find logs of every
// length and some scripts hand off many full batches between reads.
func TestL2LogMatchesCache(t *testing.T) {
	var inline, logged, handoffs, drains int
	for i, readPct := range []int{50, 5, 1, 0} {
		eng, m := testMachine()
		ref := cache.New(m.Config().Cache)
		task := m.NewTask("t")
		rng := rand.New(rand.NewSource(int64(i + 1)))
		const arena = 1 << 20 // four times the L2
		base := m.Alloc(2 * arena)
		check := func(step int) {
			l2 := m.L2()
			for _, ctx := range []cache.Context{cache.Kernel, cache.User} {
				if got, want := l2.Stats(ctx), ref.Stats(ctx); got != want {
					t.Fatalf("script %d step %d: %v stats %+v, want %+v", i, step, ctx, got, want)
				}
			}
		}
		for step := 0; step < 20000; step++ {
			size := 1 + rng.Intn(l2InlineLines*64)
			if rng.Intn(4) == 0 {
				size = 1 + rng.Intn(arena/8)
			}
			addr := base + uint64(rng.Intn(arena))
			ctx := cache.Context(rng.Intn(2))
			wasIdle := !m.l2.busy && len(m.l2.log) == 0
			switch r := rng.Intn(100); {
			case r < readPct:
				if len(m.l2.log) > 0 {
					drains++
				}
				check(step)
				continue
			case r < 40:
				dst := base + uint64(rng.Intn(arena))
				task.Copy(ctx, addr, dst, size, nil)
				ref.AccessRange(ctx, addr, size)
				ref.AccessRange(ctx, dst, size)
			case r < 75:
				task.TouchRange(ctx, addr, size)
				ref.AccessRange(ctx, addr, size)
			case r < 97:
				m.DMAWrite(addr, size)
				ref.InvalidateRange(addr, size)
			default:
				m.L2().ResetStats()
				ref.ResetStats()
			}
			switch {
			case !wasIdle && m.l2.busy && len(m.l2.log) == 0:
				handoffs++
			case wasIdle && !m.l2.busy && len(m.l2.log) == 0:
				inline++
			default:
				logged++
			}
			if step%1024 == 0 {
				eng.RunAll()
			}
		}
		eng.RunAll()
		check(-1)
	}
	t.Logf("inline %d, logged %d, handoffs %d, non-empty drains %d", inline, logged, handoffs, drains)
	if inline == 0 || logged == 0 || handoffs == 0 || drains == 0 {
		t.Fatal("the scripts did not exercise every path")
	}
}

// TestL2BadContextPanicsOnCaller logs an access with an invalid context
// while a batch is in flight: the panic must reach the caller, not kill
// the process from the batch's goroutine, and the machine must still
// drain.
func TestL2BadContextPanicsOnCaller(t *testing.T) {
	_, m := testMachine()
	task := m.NewTask("t")
	const size = 2 * l2BatchLines * 64
	buf := m.Alloc(size)
	task.TouchRange(cache.Kernel, buf, size)
	if !m.l2.busy {
		t.Fatal("a full batch was not handed off")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid context did not panic")
		}
		if got := m.L2().Stats(cache.Kernel).Accesses; got != size/64 {
			t.Fatalf("kernel accesses = %d, want %d", got, size/64)
		}
	}()
	task.TouchRange(cache.Context(7), buf, 64)
}
