//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation pins (testing.AllocsPerRun) skip under -race,
// where instrumentation changes what allocates.
package race

// Enabled is true when built with -race.
const Enabled = true
