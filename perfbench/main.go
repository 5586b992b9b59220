// Command perfbench is Hydra's wall-clock benchmark. It measures the
// simulator's host time, not simulated time: one workload per process,
// scenario cells back to back in a single goroutine, cell i at seed+i.
//
//	go run . --workload dataplane --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last output line carries the end-to-end metrics
// declared in BENCHMARK.json; with --trace 1 it carries the per-layer
// metrics from a separate traced run. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: tivopc, dataplane or syscalls")
	seed := fs.Int64("seed", 1, "workload seed; cell i runs at seed+i")
	seconds := fs.Float64("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's spans")
	update := fs.String("update-golden", "", "write golden digests for seeds 1..N of every workload to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *update != "" {
		return updateGolden(*update)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if !spec.hasWorkload(*name) {
		return fmt.Errorf("workload %q is not declared in %s", *name, *specPath)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	goldens, err := parseGolden(goldenJSON)
	if err != nil {
		return err
	}

	env := environment()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("env: cpu=%q nproc=%s gomaxprocs=%s go=%s\n", env["cpu"], env["nproc"], env["gomaxprocs"], env["go"])

	r := &runner{w: w, golden: goldens[w.name]}
	budget := time.Duration(*seconds * float64(time.Second))
	var values map[string]float64
	defs := spec.EndToEnd
	if *trace == 0 {
		setupS := r.setup(*seed, w.setupReps)
		values = r.measure(*seed, budget)
		values["setup_s"] = setupS
	} else {
		defs = spec.PerLayer
		r.setup(*seed, 1)
		spanPath := filepath.Join(*outDir, fmt.Sprintf("perfbench-spans-%s-%d.json", w.name, *seed))
		values, err = r.traced(*seed, budget, spanPath, env)
		if err != nil {
			return err
		}
	}
	metrics, err := buildMetrics(defs, values)
	if err != nil {
		return err
	}
	for _, k := range slices.Sorted(maps.Keys(metrics)) {
		fmt.Printf("metric %-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Printf("failed_frac %g (%d failed of %d cells attempted)\n",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// environment records what the measurements ran on.
func environment() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
}

// goldenSeeds is how many seeds, from 1, the golden file covers.
const goldenSeeds = 48

// parseGolden reads workload → seed → digest.
func parseGolden(b []byte) (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// updateGolden regenerates the golden digests through each workload's
// public untraced entry point. Cells must still pass their invariants.
func updateGolden(path string) error {
	g := map[string]map[string]string{}
	for _, name := range []string{"tivopc", "dataplane", "syscalls"} {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		if w.init != nil {
			if err := w.init(); err != nil {
				return err
			}
		}
		g[name] = map[string]string{}
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			rows, _, err := w.run(seed, nil, nil)
			if err == nil {
				_, err = w.check(rows)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			g[name][strconv.FormatInt(seed, 10)] = digest(rows)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
