package experiments

import (
	"fmt"
	"runtime"
	"time"

	"hydra/internal/obs"
	"hydra/internal/sim"
	"hydra/internal/tivopc"
)

// Options configures one Scenario run.
type Options struct {
	Seed int64
	// Quick shortens the paper's sampled scenarios (QuickDuration instead
	// of DefaultDuration) and halves the jitter sweep's replicas.
	Quick bool
	// Workers is the worker goroutine count for the scenarios that check
	// serial ≡ parallel (0 = their default).
	Workers int
	// Trace, when non-nil, also runs the scenario's traced run (see
	// Scenario.Traced) with this recorder config.
	Trace *obs.Config
}

// Duration is the simulated length of the paper's sampled scenarios.
func (o Options) Duration() sim.Time {
	if o.Quick {
		return QuickDuration
	}
	return DefaultDuration
}

// Tally is one trace-vs-counter reconciliation: the merged trace must
// hold exactly Want records named Record in category Cat.
type Tally struct {
	Record string
	Cat    obs.Cat
	Want   uint64
}

// Result is one scenario run's outcome.
type Result struct {
	// Model holds the metrics that are deterministic per seed; the golden
	// test pins them exactly. Wall holds the ones that are not (wall
	// clocks, allocation counts, worker counts taken from the host).
	Model, Wall map[string]float64
	// Text is the rendered table.
	Text string
	// Tracer and Tallies come from the traced run when Options.Trace was
	// set; Reconcile checks one against the other.
	Tracer  *obs.Tracer
	Tallies []Tally
}

// Scenario is one entry of the evaluation.
type Scenario struct {
	Name string
	// Alias is an optional short name (x8 for x8-contention).
	Alias string
	// Traced describes the run Options.Trace records, or is empty when
	// the scenario has none.
	Traced string
	Run    func(Options) (Result, error)
}

// Scenarios is the whole evaluation in run order: the paper's Figure 1,
// Tables 2–4 and Figures 9–10, then the extensions X2–X12, the engine
// microbenchmarks, the windowed cluster cell and the jitter sweep.
var Scenarios = []Scenario{
	{Name: "figure1", Run: runFigure1},
	{Name: "table2-figure9", Run: runTable2},
	{Name: "table3-figure10", Run: runTable3},
	{Name: "table4-client", Run: runTable4},
	{Name: "x2-layout", Run: runX2},
	{Name: "x3-channel", Run: runX3},
	{Name: "x4-loader", Run: runX4},
	{Name: "x5-energy", Run: runX5},
	{Name: "x6-failover", Run: runX6},
	{Name: "x7-saturation", Traced: "x7 cell (50k/s, batch 8)", Run: runX7},
	{Name: "x8-contention", Alias: "x8", Run: runX8},
	{Name: "x9-cluster", Alias: "x9", Run: runX9},
	{Name: "x10-autoscale", Alias: "x10", Run: runX10},
	{Name: "x11-syscalls", Alias: "x11", Traced: "x11 top-rate cell (all variants)", Run: runX11},
	{Name: "x12-dataplane", Alias: "x12", Traced: "x12 cell (4 hosts, 1 worker)", Run: runX12},
	{Name: "engine", Run: runEngine},
	{Name: "x9-parallel", Run: runX9Parallel},
	{Name: "table2-jitter-sweep", Run: runSweep},
}

// Reconcile checks a traced run: nothing dropped, and every tally's
// record count equal to its counter.
func Reconcile(tr *obs.Tracer, tallies []Tally) error {
	if n := tr.Dropped(); n != 0 {
		return fmt.Errorf("trace: ring overflowed, %d records dropped", n)
	}
	type key struct {
		name string
		cat  obs.Cat
	}
	counts := map[key]uint64{}
	for _, rec := range tr.Merged() {
		counts[key{rec.Name, rec.Cat}]++
	}
	for _, t := range tallies {
		if got := counts[key{t.Record, t.Cat}]; got != t.Want {
			return fmt.Errorf("trace: %s records %d, counters say %d", t.Record, got, t.Want)
		}
	}
	return nil
}

func model(m map[string]float64, text string) (Result, error) {
	return Result{Model: m, Text: text}, nil
}

func runFigure1(Options) (Result, error) {
	f := RunFigure1()
	return model(map[string]float64{
		"tx_points": float64(len(f.TX)),
		"rx_points": float64(len(f.RX)),
	}, f.Render())
}

func runTable2(o Options) (Result, error) {
	jit, err := RunTable2Figure9(o.Seed, o.Duration())
	if err != nil {
		return Result{}, err
	}
	if err := CheckJitterShape(jit); err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range jit.Rows {
		m[slug(row.Scenario)+"_median_ms"] = row.Measured.Median
		m[slug(row.Scenario)+"_stddev_ms"] = row.Measured.StdDev
	}
	return model(m, jit.RenderTable2()+"\n"+jit.RenderFigure9())
}

func runTable3(o Options) (Result, error) {
	load, err := RunTable3Figure10(o.Seed, o.Duration())
	if err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range load.Rows {
		m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
		m[slug(row.Scenario)+"_l2_slowdown"] = row.L2Slowdown
	}
	return model(m, load.RenderTable3()+"\n"+load.RenderFigure10())
}

func runTable4(o Options) (Result, error) {
	cli, err := RunTable4(o.Seed, o.Duration())
	if err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range cli.Rows {
		m[slug(row.Scenario)+"_cpu_pct"] = row.CPU.Mean
		m[slug(row.Scenario)+"_l2_miss_delta"] = row.MissDelta
	}
	return model(m, cli.RenderTable4()+"\n"+cli.RenderClientL2())
}

func runX2(o Options) (Result, error) {
	lay, err := RunLayoutAblation(60, o.Seed)
	if err != nil {
		return Result{}, err
	}
	return model(map[string]float64{
		"greedy_gap_frac": lay.MeanGapFrac,
		"ilp_nodes":       lay.MeanILPNodes,
	}, lay.Render())
}

func runX3(o Options) (Result, error) {
	ch, err := RunChannelAblation(8192, 256, o.Seed)
	if err != nil {
		return Result{}, err
	}
	return model(map[string]float64{
		"staged_vs_zerocopy": float64(ch.StagedTime) / float64(ch.ZeroCopyTime),
	}, ch.Render())
}

func runX4(o Options) (Result, error) {
	ld, err := RunLoaderAblation(32<<10, o.Seed)
	if err != nil {
		return Result{}, err
	}
	return model(map[string]float64{
		"devlink_vs_hostlink": float64(ld.DeviceLink) / float64(ld.HostLink),
	}, ld.Render())
}

func runX5(o Options) (Result, error) {
	en, err := RunEnergy(o.Seed, o.Duration())
	if err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range en.Rows {
		m[slug(row.Scenario)+"_host_joules"] = row.HostJoules
	}
	return model(m, en.Render())
}

func runX6(o Options) (Result, error) {
	fo, err := RunFailover(o.Seed, o.Duration())
	if err != nil {
		return Result{}, err
	}
	if err := CheckFailoverShape(fo); err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range fo.Rows {
		m[slug(row.Scenario)+"_availability"] = row.Availability
		m[slug(row.Scenario)+"_detect_ms"] = row.DetectMS
		m[slug(row.Scenario)+"_migrate_ms"] = row.MigrateMS
		m[slug(row.Scenario)+"_post_stddev_ms"] = row.PostJitter.StdDev
	}
	return model(m, fo.Render())
}

func runX7(o Options) (Result, error) {
	sat, err := RunSaturation(o.Seed, X7Duration)
	if err != nil {
		return Result{}, err
	}
	if err := CheckSaturationShape(sat); err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, row := range sat.Rows {
		key := fmt.Sprintf("rate%dk_batch%d", row.RateHz/1000, row.Batch)
		m[key+"_cycles_per_msg"] = row.CyclesPerMsg
		m[key+"_lat_mean_ms"] = row.MeanLatencyMS
		m[key+"_interrupts"] = float64(row.Interrupts)
		m[key+"_events"] = float64(row.EventsFired)
	}
	res := Result{Model: m, Text: sat.Render()}
	if o.Trace != nil {
		row, tr, err := RunSaturationCell(o.Seed, X7Duration, 50_000, 8, 100*sim.Microsecond, o.Trace)
		if err != nil {
			return Result{}, err
		}
		res.Tracer = tr
		res.Tallies = []Tally{
			{"chan.send", obs.CatChannel, row.Sent},
			{"chan.delivered", obs.CatChannel, row.Delivered},
			{"chan.irq", obs.CatChannel, row.Interrupts},
		}
	}
	return res, nil
}

func runX8(o Options) (Result, error) {
	con, err := RunContention(o.Seed, X8Duration, 0)
	if err != nil {
		return Result{}, err
	}
	if err := CheckContentionShape(con); err != nil {
		return Result{}, err
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
	return model(m, con.Render())
}

// runX9 runs the cluster grid twice — serial loop, then the Sweep worker
// pool (0 = GOMAXPROCS workers) — and the rows must match bit for bit
// before they count.
func runX9(o Options) (Result, error) {
	parallel, err := serialEqualsParallel("x9", 0, func(w int) (*ClusterResults, error) {
		return RunCluster(o.Seed, X9Duration, w)
	})
	if err != nil {
		return Result{}, err
	}
	if err := CheckClusterShape(parallel); err != nil {
		return Result{}, err
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
	return model(m, parallel.Render()+"  (serial ≡ sweep verified bit-identical)\n")
}

// runX10 is the load-ramp comparison: static provisioning at the peak
// count vs the autoscaler, with a live Offcode hot-swap at the peak.
// RunAutoscale checks the elastic cell serial ≡ parallel.
func runX10(o Options) (Result, error) {
	res, err := RunAutoscale(o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	if err := CheckAutoscaleShape(res); err != nil {
		return Result{}, err
	}
	m := map[string]float64{}
	for _, p := range []struct {
		key string
		row *X10Row
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
	return model(m, res.Render())
}

// runX11 is the syscall-rate grid (RunSyscalls checks every cell serial
// ≡ parallel) with its hot-swap replay leg. Its traced run is the
// top-rate cell.
func runX11(o Options) (Result, error) {
	res, err := RunSyscalls(o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	if err := CheckSyscallShape(res); err != nil {
		return Result{}, err
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
	out := Result{Model: m, Text: res.Render()}
	if o.Trace != nil {
		rows, tr, err := RunX11CellTraced(o.Seed, X11TopRate(), 1, o.Trace)
		if err != nil {
			return Result{}, err
		}
		var issued, executed, completed uint64
		for _, row := range rows {
			issued += row.Issued
			executed += row.Executed
			completed += row.Completed
		}
		out.Tracer = tr
		out.Tallies = []Tally{
			{"syscall.issue", obs.CatSyscall, issued},
			{"syscall.dispatch", obs.CatSyscall, executed},
			{"syscall.complete", obs.CatSyscall, completed},
		}
	}
	return out, nil
}

// runX12 is the weak-scaling grid plus the churn soak (RunDataPlane
// checks both serial ≡ parallel). Its traced run is one 4-host cell.
func runX12(o Options) (Result, error) {
	res, err := RunDataPlane(o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	if err := CheckDataPlaneShape(res); err != nil {
		return Result{}, err
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
	out := Result{Model: m, Text: res.Render()}
	if o.Trace != nil {
		row, tr, err := RunX12CellTraced(o.Seed, 4, 1, o.Trace)
		if err != nil {
			return Result{}, err
		}
		out.Tracer = tr
		out.Tallies = []Tally{
			{"flow.hit", obs.CatFlow, row.Hits},
			{"flow.miss", obs.CatFlow, row.Misses},
			{"flow.insert", obs.CatFlow, row.Inserts},
			{"flow.evict", obs.CatFlow, row.Evicted},
			{"flow.expire", obs.CatFlow, row.Expired},
			{"flow.drop", obs.CatFlow, row.PolicyDrops},
		}
	}
	return out, nil
}

// runEngine: event counts are model; events/s and allocs/event are wall.
func runEngine(o Options) (Result, error) {
	eb, err := RunEngineBench(o.Seed, EngineBenchEvents)
	if err != nil {
		return Result{}, err
	}
	if err := CheckEngineBenchShape(eb, EngineBenchEvents); err != nil {
		return Result{}, err
	}
	res := Result{Model: map[string]float64{}, Wall: map[string]float64{}, Text: eb.Render()}
	for _, row := range eb.Rows {
		key := slug(row.Scenario)
		res.Model[key+"_events"] = float64(row.Events)
		res.Model[key+"_canceled"] = float64(row.Canceled)
		res.Wall[key+"_events_per_sec"] = row.EventsPerSec
		res.Wall[key+"_allocs_per_event"] = row.AllocsPerEvent
	}
	return res, nil
}

// runX9Parallel runs the windowed cluster cell with window bodies
// serial, then parallel; RunClusterParallel fails unless the rows match.
func runX9Parallel(o Options) (Result, error) {
	pr, err := RunClusterParallel(o.Seed, X9Duration, o.Workers)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Model: map[string]float64{
			"msgs_per_sec":  pr.Row.MsgsPerSec,
			"total_msgs":    float64(pr.Row.Total),
			"cross_bridges": float64(pr.Row.CrossBridges),
			"bridged":       float64(pr.Row.Bridged),
		},
		Wall: map[string]float64{
			"workers":     float64(pr.Workers),
			"serial_ms":   pr.SerialMS,
			"parallel_ms": pr.ParallelMS,
		},
		Text: fmt.Sprintf(
			"X9p — Conservative-window parallel cluster: 4 per-host engines, %d shards\n"+
				"  %.0f msgs/s over %d cross bridges; 1 worker ≡ %d workers bit-identical\n"+
				"  wall-clock: serial windows %.0f ms, parallel %.0f ms (GOMAXPROCS %d)\n",
			X9Shards, pr.Row.MsgsPerSec, pr.Row.CrossBridges, pr.Workers,
			pr.SerialMS, pr.ParallelMS, runtime.GOMAXPROCS(0)),
	}, nil
}

// runSweep replays the Table 2 jitter scenario over 8 seeds (4 when
// Quick) twice — serial loop, then worker pool — and fails unless the
// pooled statistics match exactly.
func runSweep(o Options) (Result, error) {
	seeds := make([]int64, 8)
	if o.Quick {
		seeds = seeds[:4]
	}
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)
	}
	start := time.Now()
	serial, err := RunJitterSweep(tivopc.SimpleServer, seeds, o.Duration(), 1)
	if err != nil {
		return Result{}, err
	}
	serialMS := float64(time.Since(start).Microseconds()) / 1000
	start = time.Now()
	parallel, err := RunJitterSweep(tivopc.SimpleServer, seeds, o.Duration(), o.Workers)
	if err != nil {
		return Result{}, err
	}
	parallelMS := float64(time.Since(start).Microseconds()) / 1000
	if serial.Pooled != parallel.Pooled {
		return Result{}, fmt.Errorf("sweep determinism violated: serial %+v != parallel %+v",
			serial.Pooled, parallel.Pooled)
	}
	speedup := serialMS / parallelMS
	return Result{
		Model: map[string]float64{
			"replicas":         float64(len(seeds)),
			"pooled_median_ms": parallel.Pooled.Median,
			"pooled_stddev_ms": parallel.Pooled.StdDev,
		},
		Wall: map[string]float64{
			"workers":     float64(parallel.Workers),
			"serial_ms":   serialMS,
			"parallel_ms": parallelMS,
			"speedup":     speedup,
		},
		Text: parallel.Render() + "\n" + fmt.Sprintf(
			"sweep wall-clock: serial %.0f ms, parallel %.0f ms (%.2fx, %d workers) — pooled stats identical",
			serialMS, parallelMS, speedup, parallel.Workers),
	}, nil
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
