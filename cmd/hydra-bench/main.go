// Command hydra-bench regenerates every table and figure from the paper's
// evaluation plus the repository's ablations, printing each next to the
// published numbers. This is the EXPERIMENTS.md generator.
//
// With -json it instead emits a machine-readable report — per-scenario
// headline metrics plus wall-clock — so successive runs can be archived
// (BENCH_*.json) and compared to track the perf trajectory.
//
// The -sweep scenario replays the Table 2 jitter measurement across N
// seeds twice: serially, then fanned out over the testbed.Sweep worker
// pool. Per-seed results are bit-identical; only the wall clock differs.
//
// The -scenario flag runs selected experiments by name, comma-separated
// (e.g. -scenario x6-failover or -scenario engine,x7-saturation,x9; the
// aliases x8/x9/x10/x11 expand to x8-contention/x9-cluster/x10-autoscale/
// x11-syscalls), which makes iterating on one table cheap. CI archives
// `-json -scenario x7-saturation` output as the per-commit channel
// hot-path baseline (cycles/message, latency, interrupts, event volume),
// `-json -scenario x8-contention` as the multi-app contention baseline
// (admissions, quota denials, per-app throughput, teardown reclamation),
// `-json -scenario x9-cluster` as the cluster sharding baseline
// (per-cell throughput, cross-host bridge counts, migration time),
// `-json -scenario x10-autoscale` as the live-mutation baseline
// (capacity saved, hot-swap window, replayed client messages), and
// `-json -scenario x11-syscalls` as the device-syscall dispatch baseline
// (host cycles/syscall per variant×rate, p99 completion latency,
// hot-swap replay window), and `-json -scenario x12-dataplane` as the
// sharded data-plane baseline (aggregate msgs/s and windowed hit
// rate/latency per host count, the 4-host scaling headline, the churn
// soak's swap window). The x9 scenario runs its grid twice — serial,
// then the Sweep pool — and fails unless the rows are bit-identical; x10
// does the same for its elastic cell's window bodies, x11 for every
// rate cell of its syscall grid, and x12 for every host count of its
// weak-scaling grid plus the soak (rows and flow traces).
//
// Two scenarios gate the simulator core itself: `engine` runs the
// chain/wide/churn microbenchmarks (events/sec and allocs/event for the
// ladder queue + pooled events) plus the chain-trace-off/on recorder
// overhead rows, and `x9-parallel` runs the conservative-window cluster
// cell twice — window bodies on one worker, then many — failing unless
// the rows match bit for bit. The -baseline flag compares the current
// run against an archived BENCH_*.json and fails on a regression:
// *_events_per_sec and *_msgs_per_sec must stay above 0.8× the
// baseline, *_cycles_per_msg, *_cycles_per_syscall and *_p99_lat_us
// below 1.25×, and *swap_window_ms below 1.5× (the hot-swap quiesce
// window must not quietly lengthen). CI runs `-scenario
// engine,x7-saturation,x9-cluster,x10-autoscale,x11-syscalls,x12-dataplane
// -baseline BENCH_0010.json` per commit.
//
// The -trace flag additionally runs one traced x7 saturation cell and
// writes its merged recorder stream as Chrome trace-event JSON
// (Perfetto-loadable; a .csv extension selects CSV instead), failing
// unless the per-message trace records reconcile with channel.Stats.
// -trace-x11 does the same for one x11 syscall-rate cell, reconciling
// the per-call issue/dispatch/complete records against the syscall
// stats, and -trace-x12 for one x12 data-plane cell, reconciling the
// per-packet flow events (hit/miss/insert/evict/expire/drop) against
// the flow-table ledgers. cmd/hydra-trace summarizes any of the files.
//
// Usage:
//
//	hydra-bench [-quick] [-seed N] [-json] [-sweep N] [-workers N] [-scenario a,b,...] [-baseline file] [-trace out.json] [-trace-x11 out.json] [-trace-x12 out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hydra/internal/experiments"
	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

type scenarioResult struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Seed       int64            `json:"seed"`
	SimSeconds float64          `json:"sim_seconds"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Scenarios  []scenarioResult `json:"scenarios"`
}

func main() {
	quick := flag.Bool("quick", false, "short runs (20 s simulated instead of 120 s)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	sweepN := flag.Int("sweep", 8, "jitter-sweep replicas (0 disables the sweep scenario)")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	scenario := flag.String("scenario", "", "run only the named scenarios, comma-separated (e.g. x6-failover or engine,x7-saturation,x9)")
	baseline := flag.String("baseline", "", "BENCH_*.json to compare against: fail if throughput or cycles/msg metrics regress")
	tracePath := flag.String("trace", "", "run one traced x7 cell and write its trace here (.json Chrome trace-event, .csv CSV)")
	traceX11 := flag.String("trace-x11", "", "run one traced x11 syscall-rate cell and write its trace here (same formats)")
	traceX12 := flag.String("trace-x12", "", "run one traced x12 data-plane cell and write its flow trace here (same formats)")
	flag.Parse()

	// selected is the requested scenario set (empty = run everything);
	// matched tracks which entries named a real scenario.
	selected := map[string]bool{}
	matched := map[string]bool{}
	for _, name := range strings.Split(*scenario, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			continue
		case "x8": // short alias for the contention sweep
			name = "x8-contention"
		case "x9": // short alias for the cluster sharding grid
			name = "x9-cluster"
		case "x10": // short alias for the autoscaling ramp
			name = "x10-autoscale"
		case "x11": // short alias for the device-syscall rate grid
			name = "x11-syscalls"
		case "x12": // short alias for the data-plane scaling grid
			name = "x12-dataplane"
		}
		selected[name] = true
	}

	duration := experiments.DefaultDuration
	if *quick {
		duration = experiments.QuickDuration
	}
	rep := &report{Seed: *seed, SimSeconds: duration.Float64Seconds(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	verbose := !*jsonOut

	if verbose {
		fmt.Printf("HYDRA evaluation reproduction — seed %d, %v simulated per scenario\n\n",
			*seed, duration)
	}

	timed := func(name string, run func() (map[string]float64, string, error)) {
		if len(selected) > 0 && !selected[name] {
			return
		}
		matched[name] = true
		start := time.Now()
		metrics, rendered, err := run()
		check(err)
		rep.Scenarios = append(rep.Scenarios, scenarioResult{
			Name:    name,
			WallMS:  float64(time.Since(start).Microseconds()) / 1000,
			Metrics: metrics,
		})
		if verbose && rendered != "" {
			fmt.Println(rendered)
		}
	}

	timed("figure1", func() (map[string]float64, string, error) {
		f := experiments.RunFigure1()
		return map[string]float64{
			"tx_points": float64(len(f.TX)),
			"rx_points": float64(len(f.RX)),
		}, f.Render(), nil
	})

	timed("table2-figure9", func() (map[string]float64, string, error) {
		jit, err := experiments.RunTable2Figure9(*seed, duration)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckJitterShape(jit); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range jit.Rows {
			m[slug(row.Scenario)+"_median_ms"] = row.Measured.Median
			m[slug(row.Scenario)+"_stddev_ms"] = row.Measured.StdDev
		}
		return m, jit.RenderTable2() + "\n" + jit.RenderFigure9(), nil
	})

	timed("table3-figure10", func() (map[string]float64, string, error) {
		load, err := experiments.RunTable3Figure10(*seed, duration)
		if err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range load.Rows {
			m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
			m[slug(row.Scenario)+"_l2_slowdown"] = row.L2Slowdown
		}
		return m, load.RenderTable3() + "\n" + load.RenderFigure10(), nil
	})

	timed("table4-client", func() (map[string]float64, string, error) {
		cli, err := experiments.RunTable4(*seed, duration)
		if err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range cli.Rows {
			m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
			m[slug(row.Scenario)+"_l2_miss_delta"] = row.MissDelta
		}
		return m, cli.RenderTable4() + "\n" + cli.RenderClientL2(), nil
	})

	timed("x2-layout", func() (map[string]float64, string, error) {
		lay, err := experiments.RunLayoutAblation(60, *seed)
		if err != nil {
			return nil, "", err
		}
		return map[string]float64{
			"greedy_gap_frac": lay.MeanGapFrac,
			"ilp_nodes":       lay.MeanILPNodes,
		}, lay.Render(), nil
	})

	timed("x3-channel", func() (map[string]float64, string, error) {
		ch, err := experiments.RunChannelAblation(8192, 256, *seed)
		if err != nil {
			return nil, "", err
		}
		return map[string]float64{
			"staged_vs_zerocopy": float64(ch.StagedTime) / float64(ch.ZeroCopyTime),
		}, ch.Render(), nil
	})

	timed("x4-loader", func() (map[string]float64, string, error) {
		ld, err := experiments.RunLoaderAblation(32<<10, *seed)
		if err != nil {
			return nil, "", err
		}
		return map[string]float64{
			"devlink_vs_hostlink": float64(ld.DeviceLink) / float64(ld.HostLink),
		}, ld.Render(), nil
	})

	timed("x5-energy", func() (map[string]float64, string, error) {
		en, err := experiments.RunEnergy(*seed, duration)
		if err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range en.Rows {
			m[slug(row.Scenario)+"_host_joules"] = row.HostJoules
		}
		return m, en.Render(), nil
	})

	timed("x6-failover", func() (map[string]float64, string, error) {
		fo, err := experiments.RunFailover(*seed, duration)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckFailoverShape(fo); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range fo.Rows {
			m[slug(row.Scenario)+"_availability"] = row.Availability
			m[slug(row.Scenario)+"_detect_ms"] = row.DetectMS
			m[slug(row.Scenario)+"_migrate_ms"] = row.MigrateMS
			m[slug(row.Scenario)+"_post_stddev_ms"] = row.PostJitter.StdDev
		}
		return m, fo.Render(), nil
	})

	timed("x7-saturation", func() (map[string]float64, string, error) {
		sat, err := experiments.RunSaturation(*seed, experiments.X7Duration)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckSaturationShape(sat); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range sat.Rows {
			key := fmt.Sprintf("rate%dk_batch%d", row.RateHz/1000, row.Batch)
			m[key+"_cycles_per_msg"] = row.CyclesPerMsg
			m[key+"_lat_mean_ms"] = row.MeanLatencyMS
			m[key+"_interrupts"] = float64(row.Interrupts)
			m[key+"_events"] = float64(row.EventsFired)
		}
		return m, sat.Render(), nil
	})

	timed("x8-contention", func() (map[string]float64, string, error) {
		con, err := experiments.RunContention(*seed, experiments.X8Duration)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckContentionShape(con); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range con.Rows {
			key := slug(row.Scenario)
			m[key+"_admitted"] = float64(row.Admitted)
			m[key+"_rejected"] = float64(row.Rejected)
			m[key+"_quota_denied"] = float64(row.QuotaDenied)
			m[key+"_msgs_per_app"] = float64(row.MinMsgs)
			m[key+"_reclaimed_bytes"] = float64(row.ReclaimedHostBytes)
			m[key+"_leaked_bytes"] = float64(row.LeakedHostBytes)
		}
		return m, con.Render(), nil
	})

	timed("x9-cluster", func() (map[string]float64, string, error) {
		// The cluster grid runs twice — serial loop, then the Sweep worker
		// pool — and the rows must match bit for bit before they count.
		serial, err := experiments.RunClusterWorkers(*seed, experiments.X9Duration, 1)
		if err != nil {
			return nil, "", err
		}
		parallel, err := experiments.RunClusterWorkers(*seed, experiments.X9Duration, 0)
		if err != nil {
			return nil, "", err
		}
		for i := range serial.Rows {
			if serial.Rows[i] != parallel.Rows[i] {
				return nil, "", fmt.Errorf("x9 determinism violated: serial %+v != sweep %+v",
					serial.Rows[i], parallel.Rows[i])
			}
		}
		if err := experiments.CheckClusterShape(parallel); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range parallel.Rows {
			key := slug(row.Scenario)
			m[key+"_msgs_per_sec"] = row.MsgsPerSec
			m[key+"_total_msgs"] = float64(row.Total)
			m[key+"_cross_bridges"] = float64(row.CrossBridges)
			if row.Killed {
				m[key+"_migration_ms"] = row.MigrationMS
				m[key+"_moved"] = float64(row.Moved)
			}
		}
		m["scaling_4h_over_1h"] = parallel.Rows[2].MsgsPerSec / parallel.Rows[0].MsgsPerSec
		return m, parallel.Render() + "  (serial ≡ sweep verified bit-identical)\n", nil
	})

	timed("x10-autoscale", func() (map[string]float64, string, error) {
		// The load-ramp comparison: static provisioning at the peak count
		// vs the autoscaler growing and shrinking the shard set through
		// incremental re-solves, with a live Offcode hot-swap at the peak.
		// RunAutoscale itself runs the elastic cell twice — window bodies
		// on one worker, then many — and fails unless the rows are
		// bit-identical.
		res, err := experiments.RunAutoscale(*seed, *workers)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckAutoscaleShape(res); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, p := range []struct {
			key string
			row *experiments.X10Row
		}{{"static", &res.Static}, {"auto", &res.Auto}} {
			m[p.key+"_offered"] = float64(p.row.Offered)
			m[p.key+"_delivered"] = float64(p.row.Delivered)
			m[p.key+"_lost"] = float64(p.row.Lost)
			m[p.key+"_shard_epochs"] = float64(p.row.ShardEpochs)
		}
		m["auto_peak_shards"] = float64(res.Auto.PeakShards)
		m["auto_final_shards"] = float64(res.Auto.FinalShards)
		m["auto_scale_ups"] = float64(res.Auto.ScaleUps)
		m["auto_scale_downs"] = float64(res.Auto.ScaleDowns)
		m["saved_frac"] = res.SavedFrac
		m["swap_window_ms"] = res.Auto.SwapWindowMS
		m["swap_replayed"] = float64(res.Auto.SwapReplayed)
		return m, res.Render(), nil
	})

	timed("x11-syscalls", func() (map[string]float64, string, error) {
		// The syscall-rate grid runs every cell twice — serial, then the
		// per-host engine group on many workers — and RunSyscalls fails
		// unless the rows match bit for bit. The hot-swap leg replays
		// in-flight syscalls across App.Replace with exactly-once
		// completion, gated by CheckSyscallShape.
		res, err := experiments.RunSyscalls(*seed, *workers)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckSyscallShape(res); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range res.Rows {
			key := fmt.Sprintf("%s_rate%dk", slug(row.Variant), row.RateHz/1000)
			m[key+"_cycles_per_syscall"] = row.CyclesPerSyscall
			m[key+"_p99_lat_us"] = row.P99LatencyUS
			m[key+"_interrupts"] = float64(row.Interrupts)
			m[key+"_completed"] = float64(row.Completed)
		}
		m["batched_speedup"] = res.TopRateSpeedup
		m["swap_window_ms"] = res.Swap.SwapWindowMS
		m["swap_inflight"] = float64(res.Swap.InFlightAtSwap)
		m["swap_reissued"] = float64(res.Swap.Reissued)
		return m, res.Render(), nil
	})

	timed("x12-dataplane", func() (map[string]float64, string, error) {
		// The weak-scaling grid runs every host count twice — serial,
		// then the per-host engine group on many workers — plus the
		// churn-under-hot-swap soak, and RunDataPlane fails unless rows
		// match bit for bit. CheckDataPlaneShape gates conservation, the
		// exactly-once log ledger, hit rate under churn and the 4-host
		// scaling headline.
		res, err := experiments.RunDataPlane(*seed, *workers)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckDataPlaneShape(res); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range res.Rows {
			key := fmt.Sprintf("hosts%d", row.Hosts)
			m[key+"_msgs_per_sec"] = row.MsgsPerSec
			m[key+"_hit_rate"] = row.HitRate
			m[key+"_p50_lat_us"] = row.P50LatUS
			m[key+"_p99_lat_us"] = row.P99LatUS
			m[key+"_log_lines"] = float64(row.LogLines)
		}
		m["scaling_4h_over_1h"] = res.Scaling4
		m["soak_swap_window_ms"] = res.Soak.SwapWindowMS
		m["soak_replayed"] = float64(res.Soak.SwapReplayed)
		m["soak_evicted"] = float64(res.Soak.Evicted)
		m["soak_log_lines"] = float64(res.Soak.LogLines)
		return m, res.Render(), nil
	})

	timed("engine", func() (map[string]float64, string, error) {
		eb, err := experiments.RunEngineBench(*seed, experiments.EngineBenchEvents)
		if err != nil {
			return nil, "", err
		}
		if err := experiments.CheckEngineBenchShape(eb, experiments.EngineBenchEvents); err != nil {
			return nil, "", err
		}
		m := map[string]float64{}
		for _, row := range eb.Rows {
			key := slug(row.Scenario)
			m[key+"_events"] = float64(row.Events)
			m[key+"_canceled"] = float64(row.Canceled)
			m[key+"_events_per_sec"] = row.EventsPerSec
			m[key+"_allocs_per_event"] = row.AllocsPerEvent
		}
		return m, eb.Render(), nil
	})

	timed("x9-parallel", func() (map[string]float64, string, error) {
		// The windowed cluster cell runs twice — window bodies serial,
		// then parallel — and the rows must match bit for bit. Wall
		// clocks are informational (1-CPU hosts cannot show a win).
		pr, err := experiments.RunClusterParallel(*seed, experiments.X9Duration, *workers)
		if err != nil {
			return nil, "", err
		}
		m := map[string]float64{
			"msgs_per_sec":  pr.Row.MsgsPerSec,
			"total_msgs":    float64(pr.Row.Total),
			"cross_bridges": float64(pr.Row.CrossBridges),
			"bridged":       float64(pr.Row.Bridged),
			"workers":       float64(pr.Workers),
			"serial_ms":     pr.SerialMS,
			"parallel_ms":   pr.ParallelMS,
		}
		rendered := fmt.Sprintf(
			"X9p — Conservative-window parallel cluster: 4 per-host engines, %d shards\n"+
				"  %.0f msgs/s over %d cross bridges; 1 worker ≡ %d workers bit-identical\n"+
				"  wall-clock: serial windows %.0f ms, parallel %.0f ms (GOMAXPROCS %d)\n",
			experiments.X9Shards, pr.Row.MsgsPerSec, pr.Row.CrossBridges, pr.Workers,
			pr.SerialMS, pr.ParallelMS, runtime.GOMAXPROCS(0))
		return m, rendered, nil
	})

	if selected["table2-jitter-sweep"] && *sweepN <= 0 {
		check(fmt.Errorf("scenario table2-jitter-sweep is disabled by -sweep 0"))
	}
	if *sweepN > 0 && (len(selected) == 0 || selected["table2-jitter-sweep"]) {
		matched["table2-jitter-sweep"] = true
		runSweep(rep, *seed, *sweepN, *workers, duration, verbose)
	}

	var unknown []string
	for name := range selected {
		if !matched[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		check(fmt.Errorf("unknown scenario(s) %s", strings.Join(unknown, ", ")))
	}

	if *tracePath != "" {
		check(writeX7Trace(*tracePath, *seed, verbose))
	}
	if *traceX11 != "" {
		check(writeX11Trace(*traceX11, *seed, verbose))
	}
	if *traceX12 != "" {
		check(writeX12Trace(*traceX12, *seed, verbose))
	}

	if *baseline != "" {
		check(compareBaseline(rep, *baseline, verbose))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}
}

// throughputBand is the floor for higher-is-better rate metrics
// (*_events_per_sec, *_msgs_per_sec) relative to the committed baseline:
// they are wall-clock derived, so CI tolerates up to a 20% dip before
// calling it a regression. cyclesBand is the ceiling for the
// lower-is-better *_cycles_per_msg metrics; those are virtual-clock
// derived and deterministic for a seed, but the band leaves room for
// intentional model changes that shift host cost slightly.
const (
	throughputBand = 0.8
	cyclesBand     = 1.25
	swapBand       = 1.5
)

// baselineClass maps a metric-key suffix to its regression test: floor
// ratios fail below the band, ceiling ratios fail above it.
type baselineClass struct {
	suffix  string
	band    float64
	ceiling bool
}

var baselineClasses = []baselineClass{
	{suffix: "_events_per_sec", band: throughputBand},
	{suffix: "_msgs_per_sec", band: throughputBand},
	{suffix: "_cycles_per_msg", band: cyclesBand, ceiling: true},
	// Host cost per device-initiated syscall (x11) is gated the same way
	// as cycles/msg: virtual-clock deterministic, ceiling leaves room for
	// intentional dispatch cost-model changes.
	{suffix: "_cycles_per_syscall", band: cyclesBand, ceiling: true},
	// Tail latency (x11 syscall completion, x12 data-plane send→process)
	// is virtual-clock deterministic per seed; the ceiling catches queueing
	// regressions while leaving room for intentional cost-model shifts.
	{suffix: "_p99_lat_us", band: cyclesBand, ceiling: true},
	// The hot-swap quiesce→replay window is virtual-clock deterministic
	// for a seed; the band leaves room for intentional cost-model shifts
	// while still catching a mutation path that stops overlapping work.
	// The suffix is the bare key, which x10 and x11 emit as is and x12
	// behind a "soak_" prefix.
	{suffix: "swap_window_ms", band: swapBand, ceiling: true},
}

// classOf returns the regression class of a metric key, or nil for a key
// the baseline gate does not check.
func classOf(key string) *baselineClass {
	for i := range baselineClasses {
		if strings.HasSuffix(key, baselineClasses[i].suffix) {
			return &baselineClasses[i]
		}
	}
	return nil
}

// compareBaseline checks every classed metric (throughput floors,
// cycles/msg ceilings) this run shares with the archived report and
// errors on any regression. Scenario or metric keys present on only one
// side are ignored, so old baselines stay usable as the suite grows.
func compareBaseline(rep *report, path string, verbose bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseMetrics := map[string]map[string]float64{}
	for _, s := range base.Scenarios {
		baseMetrics[s.Name] = s.Metrics
	}
	var regressions []string
	compared := 0
	for _, s := range rep.Scenarios {
		bm := baseMetrics[s.Name]
		if bm == nil {
			continue
		}
		// Sort for deterministic report order (Metrics is a map).
		keys := make([]string, 0, len(s.Metrics))
		for key := range s.Metrics {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cl := classOf(key)
			if cl == nil {
				continue
			}
			got, want := s.Metrics[key], bm[key]
			if _, ok := bm[key]; !ok || want <= 0 {
				continue
			}
			compared++
			ratio := got / want
			if verbose {
				fmt.Printf("baseline %s/%s: %.2f vs %.2f (%.2fx)\n", s.Name, key, got, want, ratio)
			}
			bad, dir := ratio < cl.band, "<"
			if cl.ceiling {
				bad, dir = ratio > cl.band, ">"
			}
			if bad {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: %.2f vs baseline %.2f (%.2fx %s %.2fx)",
						s.Name, key, got, want, ratio, dir, cl.band))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s: no comparable classed metrics (ran scenarios: %d)", path, len(rep.Scenarios))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("baseline %s: regressed:\n  %s", path, strings.Join(regressions, "\n  "))
	}
	return nil
}

// writeX7Trace runs one traced x7 saturation cell (the high-rate batched
// configuration) and writes its merged recorder stream to path — Chrome
// trace-event JSON unless the extension picks CSV. Before writing it
// re-derives the per-message totals from the trace and fails unless they
// reconcile exactly with channel.Stats, so an archived trace is known to
// agree with the accounting the tables report.
func writeX7Trace(path string, seed int64, verbose bool) error {
	row, tr, err := experiments.RunSaturationCellTraced(
		seed, experiments.X7Duration, 50_000, 8, 100*sim.Microsecond, &obs.Config{})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if n := tr.Dropped(); n != 0 {
		return fmt.Errorf("trace: ring overflowed, %d records dropped", n)
	}
	counts := map[string]uint64{}
	for _, rec := range tr.Merged() {
		counts[rec.Name]++
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"chan.send", row.Sent},
		{"chan.delivered", row.Delivered},
		{"chan.irq", row.Interrupts},
	} {
		if counts[c.name] != c.want {
			return fmt.Errorf("trace: %s records %d, channel stats say %d", c.name, counts[c.name], c.want)
		}
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if verbose {
		fmt.Printf("trace: x7 cell (50k/s, batch 8) -> %s: %d records, %d msgs reconciled\n",
			path, tr.Len(), row.Sent)
	}
	return nil
}

// writeX11Trace runs one traced x11 syscall-rate cell at the top of the
// rate ladder and writes its merged recorder stream to path, after
// checking that the per-call issue/dispatch/complete records reconcile
// with the syscall stats the table reports. cmd/hydra-trace renders the
// file's per-mode dispatch breakdown and slowest-call list.
func writeX11Trace(path string, seed int64, verbose bool) error {
	rows, tr, err := experiments.RunX11CellTraced(seed, experiments.X11TopRate(), 1, &obs.Config{})
	if err != nil {
		return fmt.Errorf("trace-x11: %w", err)
	}
	if n := tr.Dropped(); n != 0 {
		return fmt.Errorf("trace-x11: ring overflowed, %d records dropped", n)
	}
	counts := map[string]uint64{}
	for _, rec := range tr.Merged() {
		if rec.Cat == obs.CatSyscall {
			counts[rec.Name]++
		}
	}
	var issued, executed, completed uint64
	for _, row := range rows {
		issued += row.Issued
		executed += row.Executed
		completed += row.Completed
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"syscall.issue", issued},
		{"syscall.dispatch", executed},
		{"syscall.complete", completed},
	} {
		if counts[c.name] != c.want {
			return fmt.Errorf("trace-x11: %s records %d, syscall stats say %d", c.name, counts[c.name], c.want)
		}
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("trace-x11: %w", err)
	}
	if verbose {
		fmt.Printf("trace-x11: rate cell (%d/s, all variants) -> %s: %d records, %d syscalls reconciled\n",
			experiments.X11TopRate(), path, tr.Len(), issued)
	}
	return nil
}

// writeX12Trace runs one traced x12 data-plane cell (4 hosts, serial)
// and writes its merged recorder stream to path, after checking that the
// per-packet flow-event records (hit/miss/insert/evict/expire/drop)
// reconcile exactly with the flow-table ledgers the row reports.
func writeX12Trace(path string, seed int64, verbose bool) error {
	row, tr, err := experiments.RunX12CellTraced(seed, 4, 1, &obs.Config{})
	if err != nil {
		return fmt.Errorf("trace-x12: %w", err)
	}
	if n := tr.Dropped(); n != 0 {
		return fmt.Errorf("trace-x12: ring overflowed, %d records dropped", n)
	}
	counts := map[string]uint64{}
	for _, rec := range tr.Merged() {
		if rec.Cat == obs.CatFlow {
			counts[rec.Name]++
		}
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"flow.hit", row.Hits},
		{"flow.miss", row.Misses},
		{"flow.insert", row.Inserts},
		{"flow.evict", row.Evicted},
		{"flow.expire", row.Expired},
		{"flow.drop", row.PolicyDrops},
	} {
		if counts[c.name] != c.want {
			return fmt.Errorf("trace-x12: %s records %d, flow-table stats say %d", c.name, counts[c.name], c.want)
		}
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("trace-x12: %w", err)
	}
	if verbose {
		fmt.Printf("trace-x12: data-plane cell (4 hosts, %d pkts/s) -> %s: %d records, %d lookups reconciled\n",
			row.OfferedRateHz, path, tr.Len(), row.Lookups)
	}
	return nil
}

// runSweep measures the multi-seed Table 2 jitter scenario twice — serial
// loop, then worker pool — verifying the pooled statistics match exactly
// and recording both wall clocks.
func runSweep(rep *report, baseSeed int64, replicas, workers int, duration sim.Time, verbose bool) {
	seeds := make([]int64, replicas)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}

	start := time.Now()
	serial, err := experiments.RunJitterSweep(tivopc.SimpleServer, seeds, duration, 1)
	check(err)
	serialMS := float64(time.Since(start).Microseconds()) / 1000

	start = time.Now()
	parallel, err := experiments.RunJitterSweep(tivopc.SimpleServer, seeds, duration, workers)
	check(err)
	parallelMS := float64(time.Since(start).Microseconds()) / 1000

	if serial.Pooled != parallel.Pooled {
		check(fmt.Errorf("sweep determinism violated: serial %+v != parallel %+v",
			serial.Pooled, parallel.Pooled))
	}

	speedup := serialMS / parallelMS
	rep.Scenarios = append(rep.Scenarios, scenarioResult{
		Name:   "table2-jitter-sweep",
		WallMS: serialMS + parallelMS,
		Metrics: map[string]float64{
			"replicas":         float64(replicas),
			"workers":          float64(parallel.Workers),
			"serial_ms":        serialMS,
			"parallel_ms":      parallelMS,
			"speedup":          speedup,
			"pooled_median_ms": parallel.Pooled.Median,
			"pooled_stddev_ms": parallel.Pooled.StdDev,
		},
	})
	if verbose {
		fmt.Println(parallel.Render())
		fmt.Printf("sweep wall-clock: serial %.0f ms, parallel %.0f ms (%.2fx, %d workers) — pooled stats identical\n",
			serialMS, parallelMS, speedup, parallel.Workers)
	}
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
