package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSwapWindowKeysClassed checks that every swap-window metric key this
// command emits falls in a baseline class, so -baseline gates it.
func TestSwapWindowKeysClassed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		lit, ok := ix.Index.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if key, err := strconv.Unquote(lit.Value); err == nil && strings.HasSuffix(key, "swap_window_ms") {
			keys = append(keys, key)
		}
		return true
	})
	// x10 and x11 emit swap_window_ms, x12 soak_swap_window_ms.
	if len(keys) != 3 {
		t.Fatalf("found swap-window keys %q, want the x10, x11 and x12 ones", keys)
	}
	for _, key := range keys {
		if classOf(key) == nil {
			t.Errorf("metric key %q has no baseline class", key)
		}
	}
}

// TestBaselineGatesSwapWindow runs the gate against the archived
// BENCH_0010.json: the archived swap windows pass, and each one fails at
// twice its archived value.
func TestBaselineGatesSwapWindow(t *testing.T) {
	const archive = "../../BENCH_0010.json"
	raw, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, s := range base.Scenarios {
		for key, v := range s.Metrics {
			if !strings.HasSuffix(key, "swap_window_ms") {
				continue
			}
			checked++
			run := func(got float64) error {
				rep := &report{Scenarios: []scenarioResult{{Name: s.Name, Metrics: map[string]float64{key: got}}}}
				return compareBaseline(rep, archive, false)
			}
			if err := run(v); err != nil {
				t.Errorf("%s/%s at its archived value: %v", s.Name, key, err)
			}
			err := run(2 * v)
			if err == nil || !strings.Contains(err.Error(), s.Name+"/"+key) {
				t.Errorf("%s/%s at twice its archived value: got %v, want a regression", s.Name, key, err)
			}
		}
	}
	if checked != 3 {
		t.Fatalf("%s has %d swap-window keys, want the x10, x11 and x12 ones", archive, checked)
	}
}
