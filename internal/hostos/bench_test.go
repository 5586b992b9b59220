package hostos

import (
	"testing"

	"hydra/internal/cache"
	"hydra/internal/sim"
)

// BenchmarkDispatch is run-queue dispatch of one task's successive work
// items: each completion queues the next segment.
func BenchmarkDispatch(b *testing.B) {
	eng, m := testMachine()
	task := m.NewTask("t")
	ran := 0
	var k func()
	k = func() {
		if ran++; ran < b.N {
			task.Run(1000, cache.User, k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	task.Run(1000, cache.User, k)
	eng.RunAll()
}

// BenchmarkInterruptStorm is interrupts queued ahead of a backlog of
// task segments: the run queue's push-front path.
func BenchmarkInterruptStorm(b *testing.B) {
	eng, m := testMachine()
	task := m.NewTask("t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Run(100, cache.User, nil)
		m.Interrupt("dev", 100, nil)
		if i%64 == 63 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

// BenchmarkIdleLoad is one simulated second of an idle PentiumIV machine
// running DefaultIdleLoad, cache walks included: ns/op is wall time per
// simulated second.
func BenchmarkIdleLoad(b *testing.B) {
	eng, m := testMachine()
	startIdleLoad(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + sim.Second)
	}
	m.L2()
}
