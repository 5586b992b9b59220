package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"hydra/internal/obs"
	"hydra/internal/stats"
)

// runner runs one workload's cells and keeps the run's correctness
// ledger: every cell, whether set-up, measured, traced or a cross-check,
// is attempted once and counts as failed when the program returns an
// error, an invariant or golden digest does not hold, or a tracer drops
// records.
type runner struct {
	w      *workload
	golden map[string]string // seed → digest, for this workload

	attempted, failed int
}

// cellRun is one cell's measurement.
type cellRun struct {
	ok            bool
	ns            int64
	mallocs, heap uint64 // heap objects and bytes the program allocated
	out           cellOut
	digest        string
	rows          any
}

// cell runs one cell of r's workload and checks it. Only the program's
// calls are timed; checking happens after the clock stops.
func (r *runner) cell(seed int64, sp *spanLog, trace *obs.Config) cellRun {
	r.attempted++
	root := sp.begin("cell")
	defer sp.end(root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rows, dropped, err := r.w.run(seed, sp, trace)
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	c := cellRun{ns: ns, mallocs: m1.Mallocs - m0.Mallocs, heap: m1.TotalAlloc - m0.TotalAlloc, rows: rows}
	id := sp.begin("check")
	defer sp.end(id)
	if err == nil {
		c.digest = digest(rows)
		c.out, err = r.w.check(rows)
	}
	if err == nil && dropped > 0 {
		err = fmt.Errorf("tracer dropped %d records", dropped)
	}
	if want, ok := r.golden[strconv.FormatInt(seed, 10)]; err == nil && ok && want != c.digest {
		err = fmt.Errorf("golden digest mismatch: got %s, want %s", c.digest, want)
	}
	if err != nil {
		r.fail(fmt.Errorf("cell seed %d: %w", seed, err))
		return c
	}
	c.ok = true
	return c
}

func (r *runner) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.w.name, err)
}

// setup times the workload's set-up repetitions and returns their median
// in seconds. Repetition k performs the program's lazy one-time
// initialisation (k = 0) or the same work again (k > 0), then one
// untimed-elsewhere warm-up cell at seed+k.
func (r *runner) setup(seed int64, reps int) float64 {
	var times []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		init := r.w.init
		if k > 0 {
			init = r.w.reinit
		}
		if init != nil {
			r.attempted++
			if err := init(); err != nil {
				r.fail(fmt.Errorf("set-up: %w", err))
			}
		}
		r.cell(seed+int64(k), nil, nil)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

// measure runs untraced cells seed, seed+1, ... until budget has passed
// (at least five), and returns the end-to-end metrics except
// setup_s. Timings are per-cell medians: on a shared machine a
// neighbour's burst slows a few cells, and the median ignores them. The first cell is cross-checked afterwards when the workload
// has a cross-check.
func (r *runner) measure(seed int64, budget time.Duration) map[string]float64 {
	var (
		cellMS, opsPerS    []float64
		ops, mallocs, heap uint64
		first              cellRun
	)
	deadline := time.Now().Add(budget)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		c := r.cell(seed+int64(i), nil, nil)
		if i == 0 {
			first = c
		}
		if !c.ok {
			continue
		}
		cellMS = append(cellMS, float64(c.ns)/1e6)
		opsPerS = append(opsPerS, float64(c.out.ops)/(float64(c.ns)/1e9))
		ops += c.out.ops
		mallocs += c.mallocs
		heap += c.heap
	}
	if r.w.crossCheck != nil && first.ok {
		r.attempted++
		if err := r.w.crossCheck(seed, first.rows); err != nil {
			r.fail(fmt.Errorf("cross-check seed %d: %w", seed, err))
		}
	}
	fmt.Printf("cells: n=%d, cell wall ms min %.3f, p50 %.3f, p90 %.3f\n",
		len(cellMS), stats.Quantile(cellMS, 0), median(cellMS), stats.Quantile(cellMS, 0.9))
	return map[string]float64{
		"ops_per_s":          median(opsPerS),
		"cell_ms_p50":        median(cellMS),
		"allocs_per_op":      ratio(float64(mallocs), float64(ops)),
		"alloc_bytes_per_op": ratio(float64(heap), float64(ops)),
		"peak_rss_mb":        peakRSSMiB(),
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median is xs's median, or 0 when no cell succeeded.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
