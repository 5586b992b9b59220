// Command hydra-bench regenerates the paper's evaluation (Figure 1,
// Tables 2–4, Figures 9–10) and the extensions X2–X12 by running the
// scenario table experiments.Scenarios in order, printing each table next
// to the published numbers.
//
// -scenario runs selected entries by name or alias, comma-separated.
// -json emits a machine-readable report instead: per scenario the model
// metrics, which are deterministic per seed and pinned by the
// experiments package's golden test, and under "wall" the wall-clock
// ones. -trace records the single selected scenario's traced run,
// reconciles its records against the run's counters, and writes it as
// Chrome trace-event JSON (a .csv extension selects CSV);
// cmd/hydra-trace summarizes the file.
//
// Usage:
//
//	hydra-bench [-quick] [-seed N] [-json] [-workers N] [-scenario a,b,...] [-trace out.json]
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
)

type scenarioResult struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Wall    map[string]float64 `json:"wall,omitempty"`
}

type report struct {
	Seed       int64            `json:"seed"`
	SimSeconds float64          `json:"sim_seconds"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Scenarios  []scenarioResult `json:"scenarios"`
}

func main() {
	quick := flag.Bool("quick", false, "short runs (20 s simulated instead of 120 s, 4 sweep replicas instead of 8)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	workers := flag.Int("workers", 0, "worker goroutines for the serial ≡ parallel checks (0 = default)")
	scenario := flag.String("scenario", "", "run only the named scenarios, comma-separated (names or aliases, e.g. x6-failover,x9)")
	tracePath := flag.String("trace", "", "record the selected scenario's traced run and write it here (.json Chrome trace-event, .csv CSV)")
	flag.Parse()

	selected, err := selectScenarios(*scenario)
	check(err)
	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers}
	if *tracePath != "" {
		if len(selected) != 1 || selected[0].Traced == "" {
			check(fmt.Errorf("-trace needs -scenario naming one of %s", strings.Join(scenarioNames(true), ", ")))
		}
		opts.Trace = &obs.Config{}
	}

	rep := &report{Seed: *seed, SimSeconds: opts.Duration().Float64Seconds(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	verbose := !*jsonOut
	if verbose {
		fmt.Printf("HYDRA evaluation reproduction — seed %d, %v simulated per scenario\n\n",
			*seed, opts.Duration())
	}
	for _, s := range selected {
		start := time.Now()
		res, err := s.Run(opts)
		if err != nil {
			check(fmt.Errorf("%s: %w", s.Name, err))
		}
		rep.Scenarios = append(rep.Scenarios, scenarioResult{
			Name:    s.Name,
			WallMS:  float64(time.Since(start).Microseconds()) / 1000,
			Metrics: res.Model,
			Wall:    res.Wall,
		})
		if verbose {
			fmt.Println(res.Text)
		}
		if res.Tracer != nil {
			check(experiments.Reconcile(res.Tracer, res.Tallies))
			check(res.Tracer.WriteFile(*tracePath))
			if verbose {
				fmt.Printf("trace: %s -> %s: %d records, %d counters reconciled\n",
					s.Traced, *tracePath, res.Tracer.Len(), len(res.Tallies))
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}
}

// selectScenarios resolves a comma-separated list of names and aliases
// against the table, keeping table order; an empty list selects all.
func selectScenarios(list string) ([]experiments.Scenario, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	if len(want) == 0 {
		return experiments.Scenarios, nil
	}
	var out []experiments.Scenario
	for _, s := range experiments.Scenarios {
		if want[s.Name] || s.Alias != "" && want[s.Alias] {
			out = append(out, s)
			delete(want, s.Name)
			delete(want, s.Alias)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown scenario(s) %s; known: %s",
			strings.Join(unknown, ", "), strings.Join(scenarioNames(false), ", "))
	}
	return out, nil
}

// scenarioNames lists the table's entries as "name (alias)", only the
// traceable ones when traced is set.
func scenarioNames(traced bool) []string {
	var out []string
	for _, s := range experiments.Scenarios {
		switch {
		case traced && s.Traced == "":
		case s.Alias != "":
			out = append(out, s.Name+" ("+s.Alias+")")
		default:
			out = append(out, s.Name)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
