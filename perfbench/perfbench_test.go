package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hydra/internal/cache"
	"hydra/internal/experiments"
)

func TestSpecRejectsInvalidMetricName(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("repository spec: %v", err)
	}
	for _, bad := range []string{"", "_leading", "has space", "sl@sh", strings.Repeat("x", 65), spec.PerLayer[0].Name} {
		s := *spec
		s.EndToEnd = append([]metricDef(nil), spec.EndToEnd...)
		s.EndToEnd[0].Name = bad
		if err := s.validate(); err == nil {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	s := *spec
	s.PerLayer = append([]metricDef(nil), spec.PerLayer...)
	s.PerLayer[0].Unit = "ns per op"
	if err := s.validate(); err == nil {
		t.Error("unit with spaces accepted")
	}
}

func TestBuildMetricsMatchesDeclaration(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing declared metric accepted")
	}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
}

func TestGoldenMismatchFailsCell(t *testing.T) {
	goldens, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	w := dataplaneWorkload()
	good := &runner{w: w, golden: goldens["dataplane"]}
	if c := good.cell(1, nil, nil); !c.ok || good.failed != 0 {
		t.Fatal("committed golden rejected the seed-1 cell")
	}
	planted := &runner{w: w, golden: map[string]string{"1": "0123456789abcdef"}}
	if c := planted.cell(1, nil, nil); c.ok || planted.failed != 1 || planted.attempted != 1 {
		t.Fatalf("planted golden: ok=%v failed=%d attempted=%d", c.ok, planted.failed, planted.attempted)
	}
}

func TestInvariantViolationFailsCheck(t *testing.T) {
	for _, c := range []struct {
		w      *workload
		tamper func(rows any) any
	}{
		{syscallsWorkload(), func(rows any) any {
			bad := append([]experiments.X11Row(nil), rows.([]experiments.X11Row)...)
			bad[1].Completed--
			return bad
		}},
		{dataplaneWorkload(), func(rows any) any {
			bad := *rows.(*experiments.X12Row)
			bad.LogLines++
			return &bad
		}},
	} {
		rows, _, err := c.w.run(2, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.w.name, err)
		}
		if _, err := c.w.check(rows); err != nil {
			t.Fatalf("%s: untouched rows fail: %v", c.w.name, err)
		}
		if _, err := c.w.check(c.tamper(rows)); err == nil {
			t.Errorf("%s: tampered rows pass", c.w.name)
		}
	}
}

func TestProfileGroupsLeafFrames(t *testing.T) {
	for fn, want := range map[string]string{
		"hydra/internal/cache.(*Cache).Touch":     "cache",
		"hydra/internal/sim.(*Engine).Run.func1":  "sim",
		"hydra/internal/autoscale.New":            "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"sort.Sort": "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := cache.New(cache.PentiumIVL2())
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		c.AccessRange(cache.User, 0, 1<<20)
	}
	pprof.StopCPUProfile()
	counts, total, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if total == 0 || sum != total {
		t.Fatalf("module counts sum to %d of %d samples", sum, total)
	}
	// Only the cache model ran; the runtime (and the race detector, when
	// on) take the remaining samples.
	for mod, n := range counts {
		if mod != "cache" && mod != "runtime" && mod != "other" && n >= counts["cache"] {
			t.Errorf("%s has %d samples, cache %d, while only the cache model ran", mod, n, counts["cache"])
		}
	}
	if counts["cache"] == 0 {
		t.Errorf("no cache samples among %d", total)
	}
}
