package hostos

import (
	"fmt"

	"hydra/internal/cache"
	"hydra/internal/sim"
)

// IdleLoadConfig describes the background activity of an otherwise idle
// machine. The paper's "idle system" is not truly quiescent: it shows 2.86%
// CPU utilization and a steady kernel L2 miss rate (Figure 10 normalizes to
// it). We model that as a handful of periodic daemons — kernel threads,
// cron-style housekeeping, page-cache writeback — each waking on a timer,
// re-walking a resident working set (hits) plus a slice of a large rotating
// buffer (cold misses: writeback, log append, fresh pages), and burning a
// roughly constant cycle budget with a little run-to-run variation.
type IdleLoadConfig struct {
	Daemons         int      // number of background tasks
	Period          sim.Time // wake period per daemon
	CyclesPerWake   uint64   // mean work per wake
	CycleJitterFrac float64  // uniform ± fraction on CyclesPerWake
	ResidentBytes   int      // per-daemon resident set walked each wake (hits)
	StreamBytes     int      // per-daemon cold bytes walked each wake (misses)
	StreamRegion    int      // size of the rotating cold region
	KernelFraction  float64  // fraction of daemon work in kernel context
}

// DefaultIdleLoad is calibrated so a PentiumIV machine shows the paper's
// idle profile: ≈2.9% CPU with a small stddev, and a kernel L2 miss rate
// around 8-10% — a stable baseline for Figure 10's normalization.
func DefaultIdleLoad() IdleLoadConfig {
	return IdleLoadConfig{
		Daemons:         4,
		Period:          10 * sim.Millisecond,
		CyclesPerWake:   182_000, // ≈76 µs at 2.4 GHz
		CycleJitterFrac: 0.012,
		ResidentBytes:   40 << 10,
		StreamBytes:     4 << 10,
		StreamRegion:    2 << 20,
		KernelFraction:  0.75,
	}
}

// IdleLoadError is the typed error IdleLoadConfig.Validate returns for a
// field outside its range.
type IdleLoadError struct {
	Field  string // the IdleLoadConfig field
	Reason string
}

func (e *IdleLoadError) Error() string {
	return fmt.Sprintf("hostos: idle load %s %s", e.Field, e.Reason)
}

// Validate reports the first field of cfg the daemons cannot run with:
// negative counts or sizes, a non-positive period, fractions outside
// [0, 1] (which would drive the per-wake cycle budget negative), or a
// stream that does not fit strictly inside its rotating region.
func (cfg IdleLoadConfig) Validate() error {
	bad := func(field, reason string) error { return &IdleLoadError{Field: field, Reason: reason} }
	switch {
	case cfg.Daemons < 0:
		return bad("Daemons", "is negative")
	case cfg.Daemons > 0 && cfg.Period <= 0:
		return bad("Period", "must be positive")
	case !(cfg.CycleJitterFrac >= 0 && cfg.CycleJitterFrac <= 1):
		return bad("CycleJitterFrac", "must lie in [0, 1]")
	case !(cfg.KernelFraction >= 0 && cfg.KernelFraction <= 1):
		return bad("KernelFraction", "must lie in [0, 1]")
	case cfg.ResidentBytes < 0:
		return bad("ResidentBytes", "is negative")
	case cfg.StreamBytes < 0:
		return bad("StreamBytes", "is negative")
	case cfg.StreamRegion < 0:
		return bad("StreamRegion", "is negative")
	case cfg.StreamBytes > 0 && cfg.StreamRegion <= cfg.StreamBytes:
		return bad("StreamRegion", "must exceed StreamBytes")
	}
	return nil
}

// IdleLoad is a handle on the running background daemons.
type IdleLoad struct {
	tasks []*Task
}

// StartIdleLoad launches the background daemons on m. Experiments start it
// on every host so "idle" scenarios measure the same baseline the paper's
// idle rows report. An invalid cfg starts nothing and returns Validate's
// error.
func (m *Machine) StartIdleLoad(cfg IdleLoadConfig) (*IdleLoad, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	il := &IdleLoad{}
	kBytes := int(float64(cfg.ResidentBytes) * cfg.KernelFraction)
	for i := 0; i < cfg.Daemons; i++ {
		t := m.NewTask(fmt.Sprintf("daemon%d", i))
		il.tasks = append(il.tasks, t)
		resident := m.Alloc(cfg.ResidentBytes)
		stream := m.Alloc(cfg.StreamRegion)
		streamOff := 0
		rng := m.eng.NewRand(int64(1000 + i))

		var wake func()
		wake = func() {
			m.l2.access(cache.Kernel, resident, kBytes)
			m.l2.access(cache.User, resident+uint64(kBytes), cfg.ResidentBytes-kBytes)
			if cfg.StreamBytes > 0 {
				m.l2.access(cache.Kernel, stream+uint64(streamOff), cfg.StreamBytes)
				streamOff = (streamOff + cfg.StreamBytes) % (cfg.StreamRegion - cfg.StreamBytes)
			}

			cycles := float64(cfg.CyclesPerWake) *
				(1 + cfg.CycleJitterFrac*(2*rng.Float64()-1))
			kc := uint64(cycles * cfg.KernelFraction)
			uc := uint64(cycles) - kc
			t.Syscall(kc, func() {
				t.Compute(uc, func() {
					t.Sleep(cfg.Period, wake)
				})
			})
		}
		// Stagger daemon phases so they do not wake in lockstep.
		phase := sim.Time(i) * cfg.Period / sim.Time(cfg.Daemons)
		m.eng.Schedule(phase, wake)
	}
	return il, nil
}
