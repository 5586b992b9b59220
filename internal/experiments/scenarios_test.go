package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hydra/internal/obs"
	"hydra/internal/race"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run")

const goldenPath = "testdata/golden.json"

// goldenSeeds lists the seeds the golden file pins for a scenario: seed 1
// for every entry, plus seeds 2 and 3 for X7–X12 (seed 1 only under the
// race detector, where every run is several times slower).
func goldenSeeds(name string) []int64 {
	switch name {
	case "x7-saturation", "x8-contention", "x9-cluster", "x10-autoscale", "x11-syscalls", "x12-dataplane":
		if !race.Enabled {
			return []int64{1, 2, 3}
		}
	}
	return []int64{1}
}

// modelDigest is the exact fingerprint of a scenario's model metrics:
// the first 8 bytes of the SHA-256 of the sorted key=value lines, values
// in shortest round-trip form.
func modelDigest(m map[string]float64) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// goldens maps scenario → seed → model digest.
type goldens map[string]map[string]string

func readGolden(t *testing.T) goldens {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldens
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// check compares one run's model metrics against the pinned digest.
func (g goldens) check(name string, seed int64, m map[string]float64) error {
	want, ok := g[name][strconv.FormatInt(seed, 10)]
	if !ok {
		return fmt.Errorf("%s seed %d: no golden digest (regenerate with -update)", name, seed)
	}
	if got := modelDigest(m); got != want {
		return fmt.Errorf("%s seed %d: model digest %s, golden %s", name, seed, got, want)
	}
	return nil
}

// cachedRun memoizes one quick scenario run so the golden, key-class and
// planted-drift tests share it.
type cachedRun struct {
	once sync.Once
	res  Result
	err  error
}

var runCache sync.Map // "name/seed" → *cachedRun

func runQuick(t *testing.T, s Scenario, seed int64) Result {
	t.Helper()
	v, _ := runCache.LoadOrStore(fmt.Sprintf("%s/%d", s.Name, seed), &cachedRun{})
	c := v.(*cachedRun)
	c.once.Do(func() { c.res, c.err = s.Run(Options{Seed: seed, Quick: true}) })
	if c.err != nil {
		t.Fatalf("%s seed %d: %v", s.Name, seed, c.err)
	}
	return c.res
}

func scenarioNamed(t *testing.T, name string) Scenario {
	t.Helper()
	for _, s := range Scenarios {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no scenario %q", name)
	return Scenario{}
}

// TestScenarioGoldens runs every scenario in quick mode and requires its
// model metrics to match testdata/golden.json exactly. Regenerate the
// file only with -update, and say why in CHANGES.md.
func TestScenarioGoldens(t *testing.T) {
	want := readGolden(t)
	got := goldens{}
	var mu sync.Mutex
	t.Run("scenarios", func(t *testing.T) {
		for _, s := range Scenarios {
			t.Run(s.Name, func(t *testing.T) {
				t.Parallel()
				for _, seed := range goldenSeeds(s.Name) {
					m := runQuick(t, s, seed).Model
					mu.Lock()
					if got[s.Name] == nil {
						got[s.Name] = map[string]string{}
					}
					got[s.Name][strconv.FormatInt(seed, 10)] = modelDigest(m)
					mu.Unlock()
					if !*update {
						if err := want.check(s.Name, seed, m); err != nil {
							t.Error(err)
						}
					}
				}
			})
		}
	})
	if *update {
		if race.Enabled {
			t.Fatal("-update under -race would drop seeds 2 and 3")
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		if !slices.ContainsFunc(Scenarios, func(s Scenario) bool { return s.Name == name }) {
			t.Errorf("%s has digests for %q, which is not a scenario", goldenPath, name)
		}
	}
}

// TestGoldenCatchesPlantedDrift shows the golden check fails on the
// regressions the old tolerance-band gate was meant to catch, and names
// the scenario and seed: a 5% rise in one x11 cycles/syscall figure, and
// a doubled hot-swap window in x10 or x12.
func TestGoldenCatchesPlantedDrift(t *testing.T) {
	g := readGolden(t)
	for _, c := range []struct {
		scenario, key string
		factor        float64
	}{
		{"x11-syscalls", "blocking_rate400k_cycles_per_syscall", 1.05},
		{"x10-autoscale", "swap_window_ms", 2},
		{"x12-dataplane", "soak_swap_window_ms", 2},
	} {
		m := runQuick(t, scenarioNamed(t, c.scenario), 1).Model
		if err := g.check(c.scenario, 1, m); err != nil {
			t.Fatalf("unplanted: %v", err)
		}
		v := m[c.key]
		if v == 0 {
			t.Fatalf("%s/%s is %v: nothing to plant", c.scenario, c.key, v)
		}
		planted := maps.Clone(m)
		planted[c.key] = v * c.factor
		err := g.check(c.scenario, 1, planted)
		if err == nil || !strings.Contains(err.Error(), c.scenario+" seed 1") {
			t.Errorf("%s/%s ×%g: got %v, want a digest mismatch naming %s seed 1",
				c.scenario, c.key, c.factor, err, c.scenario)
		}
	}
}

// TestScenarioKeyClasses checks the model/wall split: no key is in
// both, every scenario has model metrics, and the wall keys are exactly
// the ones that vary with the host.
func TestScenarioKeyClasses(t *testing.T) {
	wall := map[string][]string{
		"x9-parallel":         {"parallel_ms", "serial_ms", "workers"},
		"table2-jitter-sweep": {"parallel_ms", "serial_ms", "speedup", "workers"},
	}
	for _, row := range []string{"chain", "wide", "churn", "chain_trace_off", "chain_trace_on"} {
		wall["engine"] = append(wall["engine"], row+"_events_per_sec", row+"_allocs_per_event")
	}
	for _, s := range Scenarios {
		res := runQuick(t, s, 1)
		if len(res.Model) == 0 {
			t.Errorf("%s: no model metrics", s.Name)
		}
		for k := range res.Wall {
			if _, ok := res.Model[k]; ok {
				t.Errorf("%s: %s is both model and wall", s.Name, k)
			}
		}
		got := slices.Sorted(maps.Keys(res.Wall))
		want := slices.Sorted(slices.Values(wall[s.Name]))
		if !slices.Equal(got, want) {
			t.Errorf("%s: wall keys %q, want %q", s.Name, got, want)
		}
	}
}

// TestTracedScenariosReconcile runs each traceable scenario's traced run
// and reconciles it, then shows a tally that is off by one fails with
// its record name.
func TestTracedScenariosReconcile(t *testing.T) {
	traced := 0
	for _, s := range Scenarios {
		if s.Traced == "" {
			continue
		}
		traced++
		res, err := s.Run(Options{Seed: 1, Quick: true, Trace: &obs.Config{}})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Tracer == nil || len(res.Tallies) == 0 {
			t.Fatalf("%s: traced run returned no tracer or tallies", s.Name)
		}
		if err := Reconcile(res.Tracer, res.Tallies); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		for i := range res.Tallies {
			if res.Tallies[i].Want == 0 {
				continue
			}
			off := slices.Clone(res.Tallies)
			off[i].Want++
			err := Reconcile(res.Tracer, off)
			if err == nil || !strings.Contains(err.Error(), off[i].Record) {
				t.Errorf("%s: %s off by one: got %v, want an error naming it", s.Name, off[i].Record, err)
			}
		}
	}
	if traced != 3 {
		t.Errorf("%d traceable scenarios, want x7, x11 and x12", traced)
	}
}
