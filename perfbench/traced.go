package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hydra/internal/obs"
)

// traced is the --trace 1 run. Each seed runs two or three times in a
// row:
//
//	A: untraced, the baseline;
//	B: with the benchmark's spans and a CPU profile;
//	C: on every fourth seed (and the first three), with the program's own
//	   tracer on (&obs.Config{}), which is slow enough to crowd out B.
//
// B and C must reproduce A's rows exactly. Seeds continue until three
// fifths of budget have passed; the layer drivers get the rest. B against
// A is the traced run's overhead, C against A the program's trace-on
// cost, each the median of per-seed ratios so that a slow spell on a
// shared machine hits both sides of a pair alike. Each cell starts from
// a collected heap, so pass C's trace rings (obs.DefaultCap records per
// engine) do not pile up in memory and every pass starts alike.
func (r *runner) traced(seed int64, budget time.Duration, spanPath string, env map[string]string) (map[string]float64, error) {
	m := map[string]float64{}
	sp := newSpanLog()
	var (
		base, tracedMS, overhead, slowdown []float64
		out                                cellOut
		prof                               bytes.Buffer
		counts                             = map[string]int64{}
		total                              int64
	)
	deadline := time.Now().Add(budget * 3 / 5)
	for i := int64(0); i < 3 || time.Now().Before(deadline); i++ {
		s := seed + i
		runtime.GC()
		a := r.cell(s, nil, nil)

		runtime.GC()
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		b := r.cell(s, sp, nil)
		pprof.StopCPUProfile()
		cellCounts, cellTotal, err := leafSamples(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for mod, n := range cellCounts {
			counts[mod] += n
		}
		total += cellTotal

		same := func(pass string, x cellRun) bool {
			if a.ok && x.ok && x.digest != a.digest {
				r.fail(fmt.Errorf("%s cell seed %d: rows differ from the untraced run", pass, s))
				return false
			}
			return a.ok && x.ok
		}
		if i%4 == 0 || len(slowdown) < 3 {
			runtime.GC()
			if c := r.cell(s, nil, &obs.Config{}); same("trace-on", c) {
				slowdown = append(slowdown, float64(c.ns)/float64(a.ns))
			}
		}
		if !same("traced", b) {
			continue
		}
		base = append(base, float64(a.ns)/1e6)
		tracedMS = append(tracedMS, float64(b.ns)/1e6)
		overhead = append(overhead, float64(b.ns)/float64(a.ns))
		out.flowHits += b.out.flowHits
		out.flowLookups += b.out.flowLookups
		out.chanMsgs += b.out.chanMsgs
		out.chanIRQs += b.out.chanIRQs
	}
	n := len(base)
	m["trace.cells"] = float64(n)
	m["trace.cell_ms_untraced"] = median(base)
	m["trace.cell_ms_traced"] = median(tracedMS)
	m["trace.overhead_pct"] = 100 * (median(overhead) - 1)
	m["obs.trace_on_slowdown"] = median(slowdown)

	// Self time of the benchmark's spans, per cell.
	self := sp.selfNS()
	perCell := func(names ...string) float64 {
		var ns int64
		for _, name := range names {
			ns += self[name]
		}
		return ratio(float64(ns)/1e6, float64(n))
	}
	m["span.build_ms"] = perCell("tivopc.NewTestbed")
	m["span.start_ms"] = perCell("tivopc.StartClient", "tivopc.StartServer")
	m["span.run_ms"] = perCell("tivopc.Eng.Run", "experiments.RunX12Cell", "experiments.RunX11Cell")
	m["span.check_ms"] = perCell("check")

	// CPU profile: leaf-frame samples by module.
	m["profile.samples"] = float64(total)
	for _, mod := range profileModules {
		m[mod+".self_pct"] = 100 * ratio(float64(counts[mod]), float64(total))
	}

	// Ratios from result rows, with their bases.
	m["flowtable.hits"] = float64(out.flowHits)
	m["flowtable.lookups"] = float64(out.flowLookups)
	m["flowtable.hit_ratio"] = ratio(float64(out.flowHits), float64(out.flowLookups))
	m["channel.msgs"] = float64(out.chanMsgs)
	m["channel.irqs"] = float64(out.chanIRQs)
	m["channel.msgs_per_irq"] = ratio(float64(out.chanMsgs), float64(out.chanIRQs))

	// The layer drivers: about a fifth of the budget, spread over ~25
	// drivers of 7 timed runs each.
	target := max(budget/5/175, time.Millisecond)
	for k, v := range layerDrivers(r, seed, target, r.w.buildSpec()) {
		m[k] = v
	}

	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := sp.write(spanPath, env); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("trace: %d traced cells, %d trace-on cells; spans in %s; profile %d samples: %s; peak rss %.1f MiB\n",
		n, len(slowdown), spanPath, total, topModules(counts, total), peakRSSMiB())
	return m, nil
}

// topModules renders the profile's largest module shares.
func topModules(counts map[string]int64, total int64) string {
	var parts []string
	for _, mod := range profileModules {
		if pct := 100 * ratio(float64(counts[mod]), float64(total)); pct >= 5 {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", mod, pct))
		}
	}
	return strings.Join(parts, ", ")
}
